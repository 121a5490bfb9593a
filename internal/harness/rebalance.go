package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fleet"
	"repro/internal/router"
	"repro/internal/snapshot"
)

// WriteFleet partitions a built database into n shards and writes the
// per-shard snapshots plus the checksummed manifest into dir (file names
// "<base>-shardK.snap", "<base>.manifest.json"), returning the manifest
// path. It is the one fleet-layout writer shared by the experiments and
// the smoke drills.
func WriteFleet(db *core.DB, dir, base string, n int, seed int64) (string, error) {
	return WriteReplicatedFleet(db, dir, base, n, 1, seed)
}

// WriteReplicatedFleet is WriteFleet with a uniform replica-set size
// recorded in the manifest. Replicas serve the same snapshot artifacts
// (one file per shard regardless of R — the digest chain covers every
// replica equally), so only the manifest changes shape.
func WriteReplicatedFleet(db *core.DB, dir, base string, n, replicas int, seed int64) (string, error) {
	if replicas < 0 {
		return "", fmt.Errorf("fleet: negative replica count %d", replicas)
	}
	if replicas == 1 {
		replicas = 0 // canonical single-replica manifest: field absent
	}
	shardDBs, parts, err := db.Shards(n)
	if err != nil {
		return "", err
	}
	m := &snapshot.Manifest{
		FormatVersion: snapshot.FormatVersion,
		Name:          db.Name,
		BuildSeed:     seed,
		Shards:        n,
		Replicas:      replicas,
		TotalEntities: len(db.EntityIDs()),
		CreatedUnix:   time.Now().Unix(),
	}
	for i, sdb := range shardDBs {
		ids := parts[i]
		path := filepath.Join(dir, fmt.Sprintf("%s-shard%d.snap", base, i))
		meta, err := snapshot.SaveShard(path, sdb, &snapshot.ShardMeta{
			Index: i, Count: n,
			Entities: len(ids), TotalEntities: len(db.EntityIDs()),
			FirstEntity: ids[0], LastEntity: ids[len(ids)-1],
		})
		if err != nil {
			return "", fmt.Errorf("shard %d: %w", i, err)
		}
		m.Shard = append(m.Shard, snapshot.ManifestShard{
			Index: i, Path: filepath.Base(path),
			Entities: len(ids), FirstEntity: ids[0], LastEntity: ids[len(ids)-1],
			SnapshotSHA256: meta.SHA256, SnapshotBytes: meta.FileBytes,
		})
	}
	manifestPath := filepath.Join(dir, base+".manifest.json")
	if err := snapshot.WriteManifest(manifestPath, m); err != nil {
		return "", err
	}
	return manifestPath, nil
}

// RebalanceStep reports one N→M rebalance of the experiment.
type RebalanceStep struct {
	From, To int
	// RebalanceSeconds is fleet.Rebalance's wall time (merge loaded
	// shards → re-partition → write M snapshots + manifest).
	RebalanceSeconds float64
	// Identical reports whether the rebalanced fleet matched the monolith
	// byte-for-byte over the full harness query fingerprint.
	Identical bool
}

// RebalanceResult reports the rebalance experiment: wall time of online
// N→M rebalancing versus the full-rebuild alternative (rebuild the
// corpus pipeline, then partition).
type RebalanceResult struct {
	Entities    int
	Extractions int
	// RebuildSeconds is the baseline: run the §4 construction pipeline
	// from the corpus again, then partition and write the target fleet.
	RebuildSeconds float64
	Steps          []RebalanceStep
	QueriesChecked int
	// Err is non-empty when the experiment itself failed.
	Err string
}

// RunRebalance builds a small hotel corpus, writes a 4-shard fleet, and
// measures online rebalancing (4→2, then 2→8) against the full-rebuild
// baseline, checking byte-identity at every step. ctx bounds every
// routed call.
func RunRebalance(ctx context.Context, seed int64) RebalanceResult {
	var res RebalanceResult
	genCfg := corpus.SmallConfig()
	genCfg.Seed = seed
	d := corpus.GenerateHotels(genCfg)
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	db, err := BuildDB(d, cfg, 400, 300)
	if err != nil {
		res.Err = fmt.Sprintf("build: %v", err)
		return res
	}
	res.Entities = len(d.Entities)
	res.Extractions = db.ExtractionCount()
	monolithFP, n := QueryFingerprint(d, db)
	res.QueriesChecked = n

	dir, err := os.MkdirTemp("", "opinedb-rebalance-*")
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer os.RemoveAll(dir)
	manifestPath, err := WriteFleet(db, dir, "hotel", 4, seed)
	if err != nil {
		res.Err = fmt.Sprintf("fleet: %v", err)
		return res
	}

	// Baseline: what reaching a 2-shard fleet costs without rebalancing —
	// the whole §4 pipeline again, then partition + write.
	start := time.Now()
	rebuilt, err := BuildDB(d, cfg, 400, 300)
	if err != nil {
		res.Err = fmt.Sprintf("rebuild: %v", err)
		return res
	}
	rdir, err := os.MkdirTemp("", "opinedb-rebuild-*")
	if err != nil {
		res.Err = err.Error()
		return res
	}
	defer os.RemoveAll(rdir)
	if _, err := WriteFleet(rebuilt, rdir, "hotel", 2, seed); err != nil {
		res.Err = fmt.Sprintf("rebuild fleet: %v", err)
		return res
	}
	res.RebuildSeconds = time.Since(start).Seconds()

	for _, to := range []int{2, 8} {
		from := 4
		if len(res.Steps) > 0 {
			from = res.Steps[len(res.Steps)-1].To
		}
		step := RebalanceStep{From: from, To: to}
		start := time.Now()
		if _, err := fleet.Rebalance(manifestPath, to, fleet.RebalanceOptions{}); err != nil {
			res.Err = fmt.Sprintf("rebalance %d→%d: %v", from, to, err)
			return res
		}
		step.RebalanceSeconds = time.Since(start).Seconds()
		rt, _, err := router.FromManifest(manifestPath, router.ManifestOptions{})
		if err != nil {
			res.Err = fmt.Sprintf("load %d-shard fleet: %v", to, err)
			return res
		}
		fp, _ := QueryFingerprint(d, rt.Engine(ctx))
		step.Identical = fp == monolithFP
		res.Steps = append(res.Steps, step)
	}
	return res
}

// FormatRebalance renders the rebalance experiment.
func FormatRebalance(r RebalanceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rebalance (online N→M re-partitioning vs full rebuild; %d entities, %d extractions)\n",
		r.Entities, r.Extractions)
	if r.Err != "" {
		fmt.Fprintf(&b, "  FAILED: %s\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  full rebuild → 2-shard fleet:  %6.2fs (pipeline + partition + write)\n", r.RebuildSeconds)
	for _, s := range r.Steps {
		verdict := "IDENTICAL"
		if !s.Identical {
			verdict = "MISMATCH (rebalance contract broken)"
		}
		speedup := 0.0
		if s.RebalanceSeconds > 0 {
			speedup = r.RebuildSeconds / s.RebalanceSeconds
		}
		fmt.Fprintf(&b, "  rebalance %d→%d shards:          %6.2fs (%4.1fx vs rebuild)   %d entries: %s\n",
			s.From, s.To, s.RebalanceSeconds, speedup, r.QueriesChecked, verdict)
	}
	return b.String()
}

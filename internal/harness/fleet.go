package harness

// Fleet fixtures shared by the smokes, opinedbload and this package's load
// fleet: write a partitioned database as a fleet on disk, and fingerprint
// any query engine's answers so a fleet can be held byte-identical to the
// monolith it was cut from.

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/snapshot"
)

// WriteFleet partitions a built database into n shards and writes the
// per-shard snapshots plus the checksummed manifest into dir (file names
// "<base>-shardK.snap", "<base>.manifest.json"), returning the manifest
// path. It is the one fleet-layout writer shared by the smoke drills and
// BuildLoadFleet.
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

// QueryEngine is the query surface QueryFingerprint drives: a *core.DB
// satisfies it directly, and router.Router implements it by scattering to
// shard backends — which is exactly how the sharding contract ("a sharded
// deployment answers byte-identically to the monolith") is enforced.
type QueryEngine interface {
	Interpret(text string) core.Interpretation
	RankPredicates(predicates []string, objective func(entityID string) bool, opts core.QueryOptions) (*core.QueryResult, error)
	TopKThreshold(predicates []string, k int) ([]core.ResultRow, core.TopKStats, error)
}

// QueryFingerprint serializes an engine's answers over the full harness
// query set with exact float bits: the interpretation of every bank
// predicate, the ranked Query result for every single predicate and
// adjacent pair, and TopKThreshold for the same workloads. Two engines
// answering byte-identically produce equal fingerprints. Work statistics
// (TA depth, sorted accesses) are deliberately excluded: they depend on
// the deployment shape (monolith vs shard fleet), not on the answers.
// It returns the fingerprint and the number of query-set entries covered.
func QueryFingerprint(d *corpus.Dataset, db QueryEngine) (string, int) {
	hexf := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	var b strings.Builder
	n := 0
	texts := make([]string, 0, len(d.Predicates))
	for _, p := range d.Predicates {
		texts = append(texts, p.Text)
	}
	for _, text := range texts {
		in := db.Interpret(text)
		fmt.Fprintf(&b, "interp %q method=%s terms=%v disj=%v sim=%s\n",
			text, in.Method, in.Terms, in.Disjunction, hexf(in.Similarity))
		n++
	}
	workloads := make([][]string, 0, 2*len(texts))
	for i, text := range texts {
		workloads = append(workloads, []string{text})
		if i+1 < len(texts) {
			workloads = append(workloads, []string{text, texts[i+1]})
		}
	}
	opts := core.DefaultQueryOptions()
	for _, q := range workloads {
		res, err := db.RankPredicates(q, nil, opts)
		if err != nil {
			fmt.Fprintf(&b, "query %v error=%v\n", q, err)
			n++
			continue
		}
		fmt.Fprintf(&b, "query %v:", q)
		for _, r := range res.Rows {
			fmt.Fprintf(&b, " %s=%s", r.EntityID, hexf(r.Score))
		}
		b.WriteByte('\n')
		n++

		rows, _, err := db.TopKThreshold(q, 10)
		if err != nil {
			fmt.Fprintf(&b, "topk %v error=%v\n", q, err)
			n++
			continue
		}
		fmt.Fprintf(&b, "topk %v:", q)
		for _, r := range rows {
			fmt.Fprintf(&b, " %s=%s", r.EntityID, hexf(r.Score))
		}
		b.WriteByte('\n')
		n++
	}
	return b.String(), n
}

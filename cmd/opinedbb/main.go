// Command opinedbb is the OpineDB builder: the offline half of the
// build-once / serve-many split. It generates (or will later ingest) a
// corpus, runs the full §4 construction pipeline with the parallel build
// workers, and writes the result as a versioned snapshot artifact that
// any number of opinedbd servers can load in milliseconds.
//
// With -shards N it additionally partitions the entity space into N
// contiguous ranges and writes one snapshot per shard plus a checksummed
// manifest; opinedbd then serves a single shard (-shard-manifest
// -shard-index) or routes over the fleet (-router).
//
// Examples:
//
//	opinedbb -domain hotel -o hotel.snap
//	opinedbb -small -verify -o /tmp/smoke.snap     # build → save → load → query smoke test
//	opinedbd -snapshot hotel.snap                  # serve it
//	opinedbb -domain hotel -shards 4 -o hotel.snap # hotel-shard0..3.snap + hotel.manifest.json
//	opinedbd -shard-manifest hotel.manifest.json -shard-index 2
//	opinedbd -router hotel.manifest.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// tracer backs the builder's /debug/traces when -debug-addr is set; the
// -verify scatter check wires it through the throwaway router so even a
// batch run's queries are traceable.
var tracer = trace.New(trace.Options{})

func main() {
	out := flag.String("o", "opinedb.snap", "snapshot output path; with -shards > 1 the base name for <base>-shardK.snap and <base>.manifest.json")
	domain := flag.String("domain", "hotel", "corpus domain: hotel or restaurant")
	seed := flag.Int64("seed", 1, "corpus and build seed")
	small := flag.Bool("small", false, "build a small corpus (faster)")
	workers := flag.Int("workers", 0, "build worker pool size (0 = GOMAXPROCS)")
	tagged := flag.Int("tagged", 800, "gold sentences for extractor training")
	labels := flag.Int("labels", 800, "membership-function training labels")
	shards := flag.Int("shards", 1, "partition the entity space into N per-shard snapshots plus a manifest (1 = monolithic)")
	replicas := flag.String("replicas", "", `with -shards > 1: record the replica-set shape in the manifest — "3" for a uniform R, or "0=3,1=1" per-range pairs (unlisted ranges default to 1) so a hot range runs R=3 while cold ranges stay single-replica (opinedbd -router serves each range accordingly)`)
	verify := flag.Bool("verify", false, "after writing, reload the artifact(s) and check query equivalence against the in-memory build")
	compact := flag.String("compact", "", "fold a review journal back into a fresh snapshot instead of building: pass a snapshot path (compacted in place, or to -o when -o is set) or a shard manifest (*.json: every shard journal is folded and the manifest digests refreshed)")
	journalSmoke := flag.Bool("journal-smoke", false, "crash-recovery smoke test: build → snapshot → ingest from a child process → SIGKILL it mid-write → reload snapshot+journal → fingerprint check against direct application")
	rebalance := flag.Int("rebalance", 0, "rebalance the stopped fleet described by -manifest to N shards without a rebuild: merge the loaded shards (snapshots + journals), re-partition, and commit a fresh snapshot set + manifest crash-safely")
	manifestFlag := flag.String("manifest", "", "shard manifest path for -rebalance")
	rebalanceSmoke := flag.Bool("rebalance-smoke", false, "rebalancing smoke test: build a 4-shard fleet → ingest through the router → rebalance to 2 and to 8 → fingerprint check against the enriched monolith")
	replicaSmoke := flag.Bool("replica-smoke", false, "replication smoke test: build an R=2 fleet → run the mixed load → join a third replica on the hot range mid-load → kill an original replica mid-load → assert zero request errors, joiner journal identity, and fingerprint byte-identity against the enriched monolith")
	debugAddr := flag.String("debug-addr", "", "serve the debug surface (net/http/pprof under /debug/pprof/, traces under /debug/traces) on this address for the duration of the run; empty disables")
	flag.Parse()

	if *debugAddr != "" {
		go func() {
			log.Printf("debug surface listening on %s", *debugAddr)
			if err := server.NewHTTPServer(*debugAddr, trace.DebugMux(tracer)).ListenAndServe(); err != nil {
				log.Printf("debug surface: %v", err)
			}
		}()
	}

	if os.Getenv(smokeChildEnv) != "" {
		journalSmokeChild()
		return
	}
	if *compact != "" {
		outSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "o" {
				outSet = true
			}
		})
		runCompact(*compact, *out, outSet)
		return
	}
	if *journalSmoke {
		runJournalSmoke(*domain, *seed, *out)
		return
	}
	if *rebalance > 0 {
		runRebalance(*manifestFlag, *rebalance)
		return
	}
	if *rebalanceSmoke {
		runRebalanceSmoke(*seed)
		return
	}
	if *replicaSmoke {
		runReplicaSmoke(*seed)
		return
	}

	if err := makeOutputDir(*out); err != nil {
		log.Fatalf("output: %v", err)
	}
	log.Printf("generating %s corpus and building subjective database...", *domain)
	start := time.Now()
	d, db, err := harness.BuildDomain(*domain, *small, *seed, *workers, *tagged, *labels)
	if err != nil {
		log.Fatalf("build: %v", err)
	}
	buildSecs := time.Since(start).Seconds()
	log.Printf("built: %d entities, %d reviews, %d extractions, %d subjective attributes (%.1fs)",
		len(d.Entities), len(d.Reviews), db.ExtractionCount(), len(db.Attrs), buildSecs)

	if *shards > 1 {
		writeSharded(d, db, *out, *shards, *replicas, *seed, buildSecs, *verify)
		os.Exit(0)
	}

	start = time.Now()
	meta, err := snapshot.Save(*out, db)
	if err != nil {
		log.Fatalf("save: %v", err)
	}
	log.Printf("wrote %s: %.2f MB, format v%d (%.2fs)",
		*out, float64(meta.FileBytes)/(1<<20), meta.FormatVersion, time.Since(start).Seconds())
	for _, s := range meta.Sections {
		log.Printf("  section %-12s %9d bytes", s.Name, s.Bytes)
	}

	if *verify {
		loaded, loadMeta, err := snapshot.Load(*out)
		if err != nil {
			log.Fatalf("verify: load: %v", err)
		}
		builtFP, n := harness.QueryFingerprint(d, db)
		loadedFP, _ := harness.QueryFingerprint(d, loaded)
		if builtFP != loadedFP {
			log.Fatalf("verify: loaded snapshot diverges from the in-memory build over %d query-set entries", n)
		}
		res, err := loaded.Query(`SELECT * FROM Entities WHERE "has really clean rooms" LIMIT 3`)
		if err != nil {
			log.Fatalf("verify: query on loaded snapshot: %v", err)
		}
		log.Printf("verify: loaded in %.1fms, byte-identical over %d query-set entries; sample query → %d rows (%s)",
			float64(loadMeta.LoadDuration.Microseconds())/1000, n, len(res.Rows), res.Rewritten)
		fmt.Printf("snapshot-smoke OK: build %.1fs → load %.1fms (%.0fx cold-start win)\n",
			buildSecs, float64(loadMeta.LoadDuration.Microseconds())/1000,
			buildSecs/loadMeta.LoadDuration.Seconds())
	}
	os.Exit(0)
}

// shardBase strips the output path's extension: hotel.snap → hotel.
func shardBase(out string) string { return strings.TrimSuffix(out, filepath.Ext(out)) }

// writeSharded partitions the built database, writes one snapshot per
// shard plus the checksummed manifest (recording the replica-set size
// when R > 1 — replicas serve the same artifacts, so only the manifest
// changes shape), and optionally verifies that a router over the
// reloaded shards answers byte-identically to the in-memory monolith.
func writeSharded(d *corpus.Dataset, db *core.DB, out string, shards int, replicaSpec string, seed int64, buildSecs float64, verify bool) {
	base := shardBase(out)
	shardDBs, parts, err := db.Shards(shards)
	if err != nil {
		log.Fatalf("shard: %v", err)
	}
	perRange, uniform, err := snapshot.ParseReplicaSpec(replicaSpec, shards)
	if err != nil {
		log.Fatalf("shard: -replicas: %v", err)
	}
	if uniform == 1 {
		uniform = 0 // canonical single-replica manifest: field absent
	}
	manifest := &snapshot.Manifest{
		FormatVersion:    snapshot.FormatVersion,
		Name:             db.Name,
		BuildSeed:        seed,
		Shards:           shards,
		Replicas:         uniform,
		ReplicasPerRange: perRange,
		TotalEntities:    len(db.EntityIDs()),
		CreatedUnix:      time.Now().Unix(),
	}
	start := time.Now()
	for i, shardDB := range shardDBs {
		ids := parts[i]
		path := fmt.Sprintf("%s-shard%d.snap", base, i)
		meta, err := snapshot.SaveShard(path, shardDB, &snapshot.ShardMeta{
			Index:         i,
			Count:         shards,
			Entities:      len(ids),
			TotalEntities: len(db.EntityIDs()),
			FirstEntity:   ids[0],
			LastEntity:    ids[len(ids)-1],
		})
		if err != nil {
			log.Fatalf("shard %d: save: %v", i, err)
		}
		// The digest was computed while the snapshot streamed out
		// (snapshot.SaveShard hashes through io.MultiWriter), so the
		// builder never re-reads the artifact it just wrote.
		manifest.Shard = append(manifest.Shard, snapshot.ManifestShard{
			Index:          i,
			Path:           filepath.Base(path),
			Entities:       len(ids),
			FirstEntity:    ids[0],
			LastEntity:     ids[len(ids)-1],
			SnapshotSHA256: meta.SHA256,
			SnapshotBytes:  meta.FileBytes,
		})
		log.Printf("wrote %s: %.2f MB, entities [%s .. %s] (%d)",
			path, float64(meta.FileBytes)/(1<<20), ids[0], ids[len(ids)-1], len(ids))
	}
	manifestPath := base + ".manifest.json"
	if err := snapshot.WriteManifest(manifestPath, manifest); err != nil {
		log.Fatalf("manifest: %v", err)
	}
	nodes := 0
	for i := 0; i < shards; i++ {
		nodes += manifest.ReplicaCount(i)
	}
	log.Printf("wrote %s: %d shards, %d serving nodes, %d entities (%.2fs)",
		manifestPath, shards, nodes, manifest.TotalEntities, time.Since(start).Seconds())

	if verify {
		// FromManifest honors the manifest's replica count, so an R>1 build
		// verifies the replicated fleet it describes.
		rt, _, err := router.FromManifest(manifestPath, router.ManifestOptions{
			Options: router.Options{Trace: tracer},
		})
		if err != nil {
			log.Fatalf("verify: %v", err)
		}
		builtFP, n := harness.QueryFingerprint(d, db)
		routedFP, _ := harness.QueryFingerprint(d, rt.Engine(context.Background()))
		if builtFP != routedFP {
			log.Fatalf("verify: sharded fleet diverges from the in-memory build over %d query-set entries", n)
		}
		log.Printf("verify: %d-shard fleet (%d nodes) byte-identical to the monolith over %d query-set entries", shards, rt.NumNodes(), n)
		fmt.Printf("shard-smoke OK: %d shards, %d query-set entries identical (build %.1fs)\n", shards, n, buildSecs)
	}
}

// makeOutputDir creates the directory the artifacts at out go to. It runs
// before the build, because snapshot.Save creates its temp file there and
// would otherwise fail only after the whole corpus is built.
func makeOutputDir(out string) error {
	return os.MkdirAll(filepath.Dir(out), 0o755)
}

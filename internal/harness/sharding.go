package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/router"
	"repro/internal/server"
)

// ShardingLevel reports one fleet size of the sharding experiment.
type ShardingLevel struct {
	// Shards is the fleet size (1 = a router over a single shard).
	Shards int
	// PartitionSeconds is the time to derive the shard databases.
	PartitionSeconds float64
	// QueryMicros / TopKMicros are mean per-request latencies through the
	// router (scatter + JSON hop + merge included).
	QueryMicros float64
	TopKMicros  float64
	// Identical reports whether the routed fleet matched the monolith
	// byte-for-byte over the full harness query fingerprint.
	Identical bool
	// QueriesChecked counts fingerprint entries compared.
	QueriesChecked int
}

// ShardingResult reports the sharding experiment: router overhead and
// answer identity versus the monolith at increasing fleet sizes.
type ShardingResult struct {
	Entities    int
	Extractions int
	// MonolithQueryMicros / MonolithTopKMicros are the direct-engine
	// baselines for the same workload.
	MonolithQueryMicros float64
	MonolithTopKMicros  float64
	Levels              []ShardingLevel
	// Err is non-empty when the experiment itself failed.
	Err string
}

// shardingWorkload samples the latency workload: every schema-targeting
// bank predicate alone, capped for runtime.
func shardingWorkload(d *corpus.Dataset, limit int) [][]string {
	var out [][]string
	for _, p := range d.Predicates {
		if p.Kind == corpus.KindOutOfSchema {
			continue
		}
		out = append(out, []string{p.Text})
		if len(out) == limit {
			break
		}
	}
	return out
}

// RunSharding builds a small hotel corpus, derives router fleets of
// 1/2/4/8 in-process shards, and measures scatter-gather overhead and
// byte-identity against the monolithic engine. ctx bounds every routed
// call.
func RunSharding(ctx context.Context, seed int64) ShardingResult {
	var res ShardingResult
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

	workload := shardingWorkload(d, 40)
	opts := core.DefaultQueryOptions()
	timeEngine := func(eng QueryEngine) (qMicros, tMicros float64, err error) {
		start := time.Now()
		for _, q := range workload {
			if _, err := eng.RankPredicates(q, nil, opts); err != nil {
				return 0, 0, err
			}
		}
		qMicros = float64(time.Since(start).Microseconds()) / float64(len(workload))
		start = time.Now()
		for _, q := range workload {
			if _, _, err := eng.TopKThreshold(q, 10); err != nil {
				return 0, 0, err
			}
		}
		tMicros = float64(time.Since(start).Microseconds()) / float64(len(workload))
		return qMicros, tMicros, nil
	}

	// Warm the monolith's caches, then take the baseline.
	if _, _, err := timeEngine(db); err != nil {
		res.Err = fmt.Sprintf("warmup: %v", err)
		return res
	}
	if res.MonolithQueryMicros, res.MonolithTopKMicros, err = timeEngine(db); err != nil {
		res.Err = fmt.Sprintf("monolith: %v", err)
		return res
	}
	monolithFP, n := QueryFingerprint(d, db)

	for _, shards := range []int{1, 2, 4, 8} {
		if shards > res.Entities {
			continue
		}
		lv := ShardingLevel{Shards: shards, QueriesChecked: n}
		start := time.Now()
		rt, err := shardedRouter(db, shards)
		if err != nil {
			res.Err = fmt.Sprintf("%d shards: %v", shards, err)
			return res
		}
		lv.PartitionSeconds = time.Since(start).Seconds()
		eng := rt.Engine(ctx)
		routedFP, _ := QueryFingerprint(d, eng)
		lv.Identical = routedFP == monolithFP
		if lv.QueryMicros, lv.TopKMicros, err = timeEngine(eng); err != nil {
			res.Err = fmt.Sprintf("%d shards: %v", shards, err)
			return res
		}
		res.Levels = append(res.Levels, lv)
	}
	return res
}

// shardedRouter partitions db into n in-process shards behind a router.
func shardedRouter(db *core.DB, n int) (*router.Router, error) {
	shardDBs, parts, err := db.Shards(n)
	if err != nil {
		return nil, err
	}
	shards := make([]router.Shard, 0, n)
	for i, sdb := range shardDBs {
		ids := parts[i]
		shards = append(shards, router.Shard{
			Backend:     router.NewLocalBackend(fmt.Sprintf("shard%d", i), sdb, server.Options{}),
			FirstEntity: ids[0],
			LastEntity:  ids[len(ids)-1],
		})
	}
	return router.New(shards, router.Options{})
}

// FormatSharding renders the sharding experiment.
func FormatSharding(r ShardingResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharding (scatter-gather router vs monolith; %d entities, %d extractions)\n",
		r.Entities, r.Extractions)
	if r.Err != "" {
		fmt.Fprintf(&b, "  FAILED: %s\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  monolith (direct engine):    query %8.0f µs   topk %8.0f µs\n",
		r.MonolithQueryMicros, r.MonolithTopKMicros)
	for _, lv := range r.Levels {
		verdict := "IDENTICAL"
		if !lv.Identical {
			verdict = "MISMATCH (sharding contract broken)"
		}
		fmt.Fprintf(&b, "  %d shard(s) via router:       query %8.0f µs   topk %8.0f µs   partition %5.2fs   %d entries: %s\n",
			lv.Shards, lv.QueryMicros, lv.TopKMicros, lv.PartitionSeconds, lv.QueriesChecked, verdict)
	}
	return b.String()
}

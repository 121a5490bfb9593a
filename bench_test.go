// Package repro's root benchmark suite regenerates every table and figure
// of "Subjective Databases" (VLDB 2019). Each benchmark runs one
// experiment end-to-end and reports its headline numbers as custom
// metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation. The tables themselves are printed by
// cmd/benchall; here the focus is regression-trackable metrics.
package repro_test

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/embedding"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/kdtree"
	"repro/internal/snapshot"
	"repro/internal/textproc"
)

// Benchmark fixture: one mid-scale corpus + database pair shared by all
// table benchmarks (building is itself benchmarked separately).
var (
	benchOnce    sync.Once
	benchHotels  *corpus.Dataset
	benchRest    *corpus.Dataset
	benchHotelDB *core.DB
	benchRestDB  *core.DB
	benchErr     error
)

func benchFixtures(b *testing.B) (*corpus.Dataset, *corpus.Dataset, *core.DB, *core.DB) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := corpus.SmallConfig()
		cfg.HotelsLondon, cfg.HotelsAmsterdam = 80, 35
		cfg.ReviewsPerHotel = 24
		cfg.Restaurants = 120
		cfg.ReviewsPerRestaurant = 12
		benchHotels = corpus.GenerateHotels(cfg)
		benchRest = corpus.GenerateRestaurants(cfg)
		c := core.DefaultConfig()
		c.UseSubstitutionIndex = true
		if benchHotelDB, benchErr = harness.BuildDB(benchHotels, c, 800, 800); benchErr != nil {
			return
		}
		benchRestDB, benchErr = harness.BuildDB(benchRest, c, 800, 800)
	})
	if benchErr != nil {
		b.Fatalf("fixture: %v", benchErr)
	}
	return benchHotels, benchRest, benchHotelDB, benchRestDB
}

// BenchmarkTable3_SurveySubjectivity regenerates the §5.1 user study.
func BenchmarkTable3_SurveySubjectivity(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		rows := harness.RunTable3(int64(i + 1))
		pct = 0
		for _, r := range rows {
			pct += r.SubjectivePct / float64(len(rows))
		}
	}
	b.ReportMetric(pct, "avg-subjective-%")
}

// BenchmarkTable4_ReviewStats regenerates the corpus statistics table.
func BenchmarkTable4_ReviewStats(b *testing.B) {
	hotels, rest, _, _ := benchFixtures(b)
	b.ResetTimer()
	var rows []harness.Table4Row
	for i := 0; i < b.N; i++ {
		rows = harness.RunTable4(hotels, rest)
	}
	b.ReportMetric(rows[0].AvgWords, "hotel-avg-words")
	b.ReportMetric(rows[2].AvgWords, "restaurant-avg-words")
}

// BenchmarkTable5_QualityVsBaselines regenerates the §5.3 comparison.
func BenchmarkTable5_QualityVsBaselines(b *testing.B) {
	hotels, rest, hdb, rdb := benchFixtures(b)
	cfg := harness.Table5Config{QueriesPerSet: 10, Trials: 1, TopK: 10, Seed: 11}
	b.ResetTimer()
	var results []harness.Table5Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(11 + i)
		results = harness.RunTable5(hotels, rest, hdb, rdb, cfg)
	}
	b.ReportMetric(results[0].Cells["OpineDB"]["hard"].Mean, "opinedb-london-hard")
	b.ReportMetric(results[0].Cells["GZ12 (IR-based)"]["hard"].Mean, "gz12-london-hard")
}

// BenchmarkTable6_ExtractorF1 regenerates the extractor comparison.
func BenchmarkTable6_ExtractorF1(b *testing.B) {
	var rows []harness.Table6Row
	for i := 0; i < b.N; i++ {
		rows = harness.RunTable6(1, int64(17+i))
	}
	b.ReportMetric(rows[3].OurF1, "hotel-f1")
	b.ReportMetric(rows[3].SOTAF1, "hotel-sota-f1")
}

// BenchmarkTable7_MarkerSpeedup regenerates the marker-summary ablation.
func BenchmarkTable7_MarkerSpeedup(b *testing.B) {
	hotels, rest, hdb, rdb := benchFixtures(b)
	cfg := harness.Table7Config{QueriesPerSet: 25, Conjuncts: 4, TopK: 10, Seed: 23}
	b.ResetTimer()
	var cols []harness.Table7Column
	for i := 0; i < b.N; i++ {
		cols = harness.RunTable7(hotels, rest, hdb, rdb, cfg)
	}
	var avg float64
	for _, c := range cols {
		avg += c.Speedup / float64(len(cols))
	}
	b.ReportMetric(avg, "avg-speedup-x")
}

// BenchmarkTable8_InterpreterAccuracy regenerates the interpretation
// accuracy study.
func BenchmarkTable8_InterpreterAccuracy(b *testing.B) {
	hotels, rest, hdb, rdb := benchFixtures(b)
	b.ResetTimer()
	var rows []harness.Table8Row
	for i := 0; i < b.N; i++ {
		rows = harness.RunTable8(hotels, rest, hdb, rdb, int64(9+i))
	}
	b.ReportMetric(rows[0].W2V, "hotel-w2v-%")
	b.ReportMetric(rows[0].Combined, "hotel-combined-%")
}

// BenchmarkFigure7_FuzzyVsHard regenerates the Appendix A comparison.
func BenchmarkFigure7_FuzzyVsHard(b *testing.B) {
	_, _, hdb, _ := benchFixtures(b)
	b.ResetTimer()
	var res harness.Figure7Result
	for i := 0; i < b.N; i++ {
		res = harness.RunFigure7(hdb)
	}
	b.ReportMetric(float64(res.FuzzyOnly), "fuzzy-only-entities")
}

// BenchmarkFigure8_QuietRoom regenerates the Appendix D example.
func BenchmarkFigure8_QuietRoom(b *testing.B) {
	hotels, _, hdb, _ := benchFixtures(b)
	b.ResetTimer()
	var res harness.Figure8Result
	for i := 0; i < b.N; i++ {
		res = harness.RunFigure8(hotels, hdb)
	}
	b.ReportMetric(res.OpineQuietMass, "opine-quiet-mass")
	b.ReportMetric(res.IRQuietMass, "ir-quiet-mass")
}

// BenchmarkAppendixB_W2VIndex regenerates the substitution-index study.
func BenchmarkAppendixB_W2VIndex(b *testing.B) {
	hotels, _, hdb, _ := benchFixtures(b)
	b.ResetTimer()
	var res harness.AppendixBResult
	for i := 0; i < b.N; i++ {
		res = harness.RunAppendixB(hotels, hdb)
	}
	b.ReportMetric(res.FastFraction*100, "fast-path-%")
	b.ReportMetric(res.SpeedupPct, "speedup-%")
}

// BenchmarkAppendixC_Pairing regenerates the pairing-model comparison.
func BenchmarkAppendixC_Pairing(b *testing.B) {
	var res harness.AppendixCResult
	for i := 0; i < b.N; i++ {
		res = harness.RunAppendixC(int64(21 + i))
	}
	b.ReportMetric(res.LearnedAcc, "learned-acc-%")
	b.ReportMetric(res.RuleAccuracy, "rule-acc-%")
}

// BenchmarkBuildDB measures full database construction (§4 pipeline) on
// the sequential path (BuildWorkers=1), the historical baseline.
func BenchmarkBuildDB(b *testing.B) {
	cfg := corpus.SmallConfig()
	d := corpus.GenerateHotels(cfg)
	c := core.DefaultConfig()
	c.BuildWorkers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Seed = int64(i + 1)
		if _, err := harness.BuildDB(d, c, 300, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelBuild measures the same construction with the build
// worker pool at GOMAXPROCS; the ratio to BenchmarkBuildDB is the build
// parallelization speedup (results are byte-identical either way).
func BenchmarkParallelBuild(b *testing.B) {
	cfg := corpus.SmallConfig()
	d := corpus.GenerateHotels(cfg)
	c := core.DefaultConfig()
	c.BuildWorkers = 0 // GOMAXPROCS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Seed = int64(i + 1)
		if _, err := harness.BuildDB(d, c, 300, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotSave measures serializing a built small-corpus DB to
// the versioned snapshot artifact (the offline half of build-once /
// serve-many).
func BenchmarkSnapshotSave(b *testing.B) {
	cfg := corpus.SmallConfig()
	d := corpus.GenerateHotels(cfg)
	c := core.DefaultConfig()
	db, err := harness.BuildDB(d, c, 300, 200)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.snap")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Save(path, db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad measures the serve-many cold start: loading a
// query-ready DB from the snapshot artifact. It builds the SAME corpus
// with the SAME config as BenchmarkParallelBuild, so the per-op ratio
// between the two is the snapshot cold-start speedup (the acceptance
// floor is 10x; cmd/benchall's "persistence" experiment tracks it).
func BenchmarkSnapshotLoad(b *testing.B) {
	cfg := corpus.SmallConfig()
	d := corpus.GenerateHotels(cfg)
	c := core.DefaultConfig()
	c.BuildWorkers = 0 // GOMAXPROCS, as in BenchmarkParallelBuild
	c.Seed = 1
	db, err := harness.BuildDB(d, c, 300, 200)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.snap")
	if _, err := snapshot.Save(path, db); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := snapshot.Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentQuery measures marker-path query throughput under
// GOMAXPROCS concurrent callers on one shared DB (caches warmed). Compare
// against BenchmarkQueryMarkers: at GOMAXPROCS≥4 the per-op time should
// drop well below the single-goroutine figure, since the read path shares
// only sharded read-locked caches.
func BenchmarkConcurrentQuery(b *testing.B) {
	_, _, hdb, _ := benchFixtures(b)
	opts := core.DefaultQueryOptions()
	preds := []string{"has really clean rooms", "has friendly staff"}
	if _, err := hdb.RankPredicates(preds, nil, opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := hdb.RankPredicates(preds, nil, opts); err != nil {
				b.Error(err) // Fatal is not allowed off the benchmark goroutine
				return
			}
		}
	})
}

// BenchmarkConcurrentTopK is BenchmarkConcurrentQuery for the
// Threshold-Algorithm path (precomputed degree lists, warmed).
func BenchmarkConcurrentTopK(b *testing.B) {
	_, _, hdb, _ := benchFixtures(b)
	preds := []string{"has really clean rooms", "has friendly staff"}
	if _, _, err := hdb.TopKThreshold(preds, 10); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := hdb.TopKThreshold(preds, 10); err != nil {
				b.Error(err) // Fatal is not allowed off the benchmark goroutine
				return
			}
		}
	})
}

// benchShard is the hotel fixture cut down to one node of the benchmark
// fleet's size (bench/: 311 entities over 4 shards ≈ 78 per scatter leg),
// so a per-leg cost can be read off directly.
func benchShard(b *testing.B) *core.DB {
	b.Helper()
	_, _, hdb, _ := benchFixtures(b)
	ids := hdb.EntityIDs()
	shard, err := hdb.ShardDB(func(id string) bool { return id < ids[78] })
	if err != nil {
		b.Fatal(err)
	}
	return shard
}

func benchQuery(b *testing.B, db *core.DB, useMarkers bool) {
	opts := core.DefaultQueryOptions()
	opts.UseMarkers = useMarkers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.RankPredicates([]string{"has really clean rooms", "has friendly staff"}, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryMarkers measures one subjective query on the marker path.
func BenchmarkQueryMarkers(b *testing.B) {
	_, _, hdb, _ := benchFixtures(b)
	benchQuery(b, hdb, true)
}

// BenchmarkQueryMarkersShard is the same query on a shard-sized database.
func BenchmarkQueryMarkersShard(b *testing.B) { benchQuery(b, benchShard(b), true) }

// BenchmarkQueryNoMarkers measures the same query on the scan path.
func BenchmarkQueryNoMarkers(b *testing.B) {
	_, _, hdb, _ := benchFixtures(b)
	benchQuery(b, hdb, false)
}

// BenchmarkQueryNoMarkersShard is the scan path on a shard-sized database.
func BenchmarkQueryNoMarkersShard(b *testing.B) { benchQuery(b, benchShard(b), false) }

// BenchmarkInterpret measures predicate interpretation without caching.
func BenchmarkInterpret(b *testing.B) {
	hotels, _, hdb, _ := benchFixtures(b)
	preds := hotels.Predicates
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdb.InterpretW2VOnly(preds[i%len(preds)].Text)
	}
}

// BenchmarkBM25Search measures top-10 retrieval over the review index.
func BenchmarkBM25Search(b *testing.B) {
	_, _, hdb, _ := benchFixtures(b)
	query := textproc.Tokenize("really clean rooms and friendly staff")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdb.ReviewIndex.Search(query, 10)
	}
}

// BenchmarkSGNSTraining measures word2vec training on a small corpus.
func BenchmarkSGNSTraining(b *testing.B) {
	cfg := corpus.SmallConfig()
	cfg.HotelsLondon, cfg.HotelsAmsterdam, cfg.ReviewsPerHotel = 15, 5, 8
	d := corpus.GenerateHotels(cfg)
	stats := textproc.NewCorpusStats()
	var docs [][]string
	for _, rv := range d.Reviews {
		toks := textproc.Tokenize(rv.Text)
		docs = append(docs, toks)
		stats.AddDocument(toks)
	}
	tc := embedding.DefaultTrainConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := embedding.Train(docs, stats, tc, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubstitutionLookup measures the Appendix B index fast path.
func BenchmarkSubstitutionLookup(b *testing.B) {
	hotels, _, hdb, _ := benchFixtures(b)
	if hdb.SubIndex == nil {
		b.Skip("substitution index disabled")
	}
	preds := hotels.Predicates
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hdb.SubIndex.Lookup(preds[i%len(preds)].Text)
	}
}

// BenchmarkFallbackScore measures the text-retrieval fallback degree.
func BenchmarkFallbackScore(b *testing.B) {
	_, _, hdb, _ := benchFixtures(b)
	ids := hdb.EntityIDs()
	query := textproc.Tokenize("good for motorcyclists")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ir.Sigmoid(hdb.EntityIndex.Score(ids[i%len(ids)], query), 4)
	}
}

// BenchmarkKDTreeNearest measures raw k-d tree search at interpreter scale.
func BenchmarkKDTreeNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n, dim = 2000, 48
	labels := make([]string, n)
	points := make([]embedding.Vector, n)
	for i := range labels {
		labels[i] = string(rune('a'+i%26)) + string(rune('0'+i%10))
		v := make(embedding.Vector, dim)
		for d := range v {
			v[d] = rng.NormFloat64()
		}
		points[i] = v
	}
	tree := kdtree.Build(labels, points)
	q := make(embedding.Vector, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := range q {
			q[d] = rng.NormFloat64()
		}
		tree.Nearest(q)
	}
}

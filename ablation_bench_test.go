// Ablation benchmarks for the design decisions DESIGN.md calls out:
// fuzzy variant (product vs Gödel), the w2v threshold θ1, marker count k,
// and Threshold-Algorithm top-k vs exhaustive scan.
package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/fuzzy"
	"repro/internal/harness"
)

// ablationQuality runs a fixed query workload and returns mean result
// quality under current db settings.
func ablationQuality(b *testing.B, d *corpus.Dataset, db *core.DB, seed int64) float64 {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	queries := harness.SampleQueries(d.Predicates, 15, 4, rng)
	cands := map[string]bool{}
	for _, e := range d.Entities {
		cands[e.ID] = true
	}
	opts := core.DefaultQueryOptions()
	var sum float64
	var n int
	for _, q := range queries {
		texts := harness.PredTexts(d, q)
		qr, err := db.RankPredicates(texts, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]string, len(qr.Rows))
		for i, r := range qr.Rows {
			ids[i] = r.EntityID
		}
		if v := harness.QueryQuality(d, q, ids, cands, 10); v >= 0 {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkAblationFuzzyVariant compares ranking quality under the
// product t-norm (the paper's choice) and the Gödel min/max variant.
func BenchmarkAblationFuzzyVariant(b *testing.B) {
	hotels, _, hdb, _ := benchFixtures(b)
	defer hdb.SetFuzzyVariant(fuzzy.Product)
	var prod, goedel float64
	for i := 0; i < b.N; i++ {
		hdb.SetFuzzyVariant(fuzzy.Product)
		prod = ablationQuality(b, hotels, hdb, int64(41+i))
		hdb.SetFuzzyVariant(fuzzy.Goedel)
		goedel = ablationQuality(b, hotels, hdb, int64(41+i))
	}
	b.ReportMetric(prod, "product-ndcg")
	b.ReportMetric(goedel, "goedel-ndcg")
}

// BenchmarkAblationW2VThreshold sweeps θ1 and reports combined
// interpretation accuracy at each setting.
func BenchmarkAblationW2VThreshold(b *testing.B) {
	hotels, _, hdb, _ := benchFixtures(b)
	orig := hdb.Config().W2VThreshold
	defer hdb.SetW2VThreshold(orig)
	accAt := func(theta float64) float64 {
		hdb.SetW2VThreshold(theta)
		hits, total := 0, 0
		for _, p := range hotels.Predicates {
			if p.GoldAttribute == "" {
				continue
			}
			total++
			in := hdb.Interpret(p.Text)
			for _, term := range in.Terms {
				if term.Attr == p.GoldAttribute {
					hits++
					break
				}
			}
		}
		return 100 * float64(hits) / float64(total)
	}
	var lo, mid, hi float64
	for i := 0; i < b.N; i++ {
		lo, mid, hi = accAt(0.6), accAt(0.75), accAt(0.9)
	}
	b.ReportMetric(lo, "acc-θ1=0.60")
	b.ReportMetric(mid, "acc-θ1=0.75")
	b.ReportMetric(hi, "acc-θ1=0.90")
}

// BenchmarkAblationMarkerCount builds databases with k ∈ {4, 10, 16}
// markers per attribute and reports ranking quality for each — the §2
// granularity decision the schema designer owns.
func BenchmarkAblationMarkerCount(b *testing.B) {
	cfg := corpus.SmallConfig()
	cfg.HotelsLondon, cfg.HotelsAmsterdam = 50, 20
	cfg.ReviewsPerHotel = 16
	d := corpus.GenerateHotels(cfg)
	quality := map[int]float64{}
	for i := 0; i < b.N; i++ {
		for _, k := range []int{4, 10, 16} {
			c := core.DefaultConfig()
			c.MarkersPerAttr = k
			db, err := harness.BuildDB(d, c, 500, 400)
			if err != nil {
				b.Fatal(err)
			}
			quality[k] = ablationQuality(b, d, db, 61)
		}
	}
	b.ReportMetric(quality[4], "ndcg-k=4")
	b.ReportMetric(quality[10], "ndcg-k=10")
	b.ReportMetric(quality[16], "ndcg-k=16")
}

func benchTopKThreshold(b *testing.B, db *core.DB) {
	preds := []string{"has really clean rooms", "has friendly staff", "serves excellent breakfast"}
	if _, _, err := db.TopKThreshold(preds, 10); err != nil { // warm caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var stats core.TopKStats
	for i := 0; i < b.N; i++ {
		var err error
		_, stats, err = db.TopKThreshold(preds, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Depth), "list-depth")
	b.ReportMetric(float64(len(db.EntityIDs())), "entities")
}

// BenchmarkTopKThresholdAlgorithm measures TA top-10 over precomputed
// degree lists (after warm-up, the steady-state serving path).
func BenchmarkTopKThresholdAlgorithm(b *testing.B) {
	_, _, hdb, _ := benchFixtures(b)
	benchTopKThreshold(b, hdb)
}

// BenchmarkTopKThresholdAlgorithmShard is TA on a shard-sized database.
func BenchmarkTopKThresholdAlgorithmShard(b *testing.B) { benchTopKThreshold(b, benchShard(b)) }

// BenchmarkTopKFullScan is the exhaustive counterpart: every entity is
// aggregated (TA with k = all, which cannot terminate early).
func BenchmarkTopKFullScan(b *testing.B) {
	_, _, hdb, _ := benchFixtures(b)
	preds := []string{"has really clean rooms", "has friendly staff", "serves excellent breakfast"}
	n := len(hdb.EntityIDs())
	if _, _, err := hdb.TopKThreshold(preds, n); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := hdb.TopKThreshold(preds, n); err != nil {
			b.Fatal(err)
		}
	}
}

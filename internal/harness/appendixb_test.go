package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

// TestRunAppendixB builds a small database and verifies the Appendix B
// experiment's invariants: it indexes the linguistic domain beside the
// database, bank predicates that are domain phrases take the fast path,
// and both sets report timings and an agreement rate with the exact scan.
func TestRunAppendixB(t *testing.T) {
	if testing.Short() {
		t.Skip("appendix B needs a DB build")
	}
	cfg := corpus.SmallConfig()
	cfg.HotelsLondon, cfg.HotelsAmsterdam = 50, 20
	cfg.ReviewsPerHotel = 16
	d := corpus.GenerateHotels(cfg)
	db, err := BuildDB(d, core.DefaultConfig(), 500, 300)
	if err != nil {
		t.Fatal(err)
	}
	res := RunAppendixB(d, db)
	if res.Phrases == 0 {
		t.Fatal("no domain phrases indexed")
	}
	if res.Bank.Predicates != len(d.Predicates) || res.Cold.Predicates != appendixBPhrasings*len(d.Predicates) {
		t.Errorf("predicates = %d bank, %d cold", res.Bank.Predicates, res.Cold.Predicates)
	}
	if res.Bank.FastFraction <= 0.1 || res.Bank.Exact == 0 {
		t.Errorf("bank fast-path fraction %.2f (%d exact) too low; index ineffective", res.Bank.FastFraction, res.Bank.Exact)
	}
	for name, s := range map[string]AppendixBSet{"bank": res.Bank, "cold": res.Cold} {
		if s.TimeIndexed <= 0 || s.TimeFull <= 0 {
			t.Errorf("%s: timings not collected", name)
		}
		if s.Agreement <= 0 || s.Agreement > 1 {
			t.Errorf("%s: agreement %.3f outside (0, 1]", name, s.Agreement)
		}
	}
	out := FormatAppendixB(res)
	if !strings.Contains(out, "substitution index") || !strings.Contains(out, "bank (") || !strings.Contains(out, "cold (") {
		t.Errorf("FormatAppendixB malformed:\n%s", out)
	}
}

// TestTable5ConfigDefaults pins the experiment configuration shape.
func TestTable5ConfigDefaults(t *testing.T) {
	cfg := DefaultTable5Config()
	if cfg.QueriesPerSet <= 0 || cfg.Trials <= 0 || cfg.TopK != 10 {
		t.Errorf("suspicious defaults: %+v", cfg)
	}
	t7 := DefaultTable7Config()
	if t7.QueriesPerSet != 100 {
		t.Errorf("Table 7 runtime unit should be 100 queries, got %d", t7.QueriesPerSet)
	}
}

// TestQuantile pins the helper's behaviour.
func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("q99 = %v", q)
	}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %v", q)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("quantile sorted the caller's slice")
	}
}

package core_test

// Determinism of the parallel build pipeline: for a fixed Config.Seed the
// built database must be byte-identical for every BuildWorkers setting —
// markers, linguistic domains, interpretations and top-k rankings all
// included. The fingerprint below serializes exactly those observables
// with exact float bits, so any scheduling-dependent divergence fails the
// byte comparison.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
)

// tinyCorpus regenerates the small hotels corpus from scratch (no state
// shared between calls).
func tinyCorpus() *corpus.Dataset {
	cfg := corpus.SmallConfig()
	return corpus.GenerateHotels(cfg)
}

// buildTinyDB builds a private small hotel DB with the given build worker
// count.
func buildTinyDB(t *testing.T, workers int) *core.DB {
	t.Helper()
	c := core.DefaultConfig()
	c.MarkersPerAttr = 6
	c.BuildWorkers = workers
	db, err := harness.BuildDB(tinyCorpus(), c, 400, 300)
	if err != nil {
		t.Fatalf("build (workers=%d): %v", workers, err)
	}
	return db
}

// hexf renders a float with exact bits.
func hexf(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

// fingerprint serializes a database's query-visible state: the schema's
// markers (names, sentiments, centroid bits), the linguistic domains, the
// interpretation of every bank predicate, and TA top-k rankings for a few
// conjunctions.
func fingerprint(d *corpus.Dataset, db *core.DB) string {
	var b strings.Builder
	for _, a := range db.Attrs {
		fmt.Fprintf(&b, "attr %s cat=%v domain=%d\n", a.Name, a.Categorical, len(a.DomainPhrases))
		for i, m := range a.Markers {
			fmt.Fprintf(&b, "  marker %d %q senti=%s centroid=", i, m.Name, hexf(m.Sentiment))
			for _, v := range m.Centroid {
				b.WriteString(hexf(v))
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "extractions %d\n", db.ExtractionCount())
	for _, p := range d.Predicates {
		in := db.Interpret(p.Text)
		fmt.Fprintf(&b, "interp %q method=%s terms=%v disj=%v sim=%s\n",
			p.Text, in.Method, in.Terms, in.Disjunction, hexf(in.Similarity))
	}
	for _, set := range [][]string{
		{"has really clean rooms"},
		{"has really clean rooms", "has friendly staff"},
	} {
		rows, _, err := db.TopKThreshold(set, 10)
		if err != nil {
			fmt.Fprintf(&b, "topk %v error=%v\n", set, err)
			continue
		}
		fmt.Fprintf(&b, "topk %v:", set)
		for _, r := range rows {
			fmt.Fprintf(&b, " %s=%s", r.EntityID, hexf(r.Score))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelBuildDeterminism builds the hotels corpus twice with the
// same seed and parallel workers on; the two databases must be
// byte-identical in every query-visible respect.
func TestParallelBuildDeterminism(t *testing.T) {
	d1, d2 := tinyCorpus(), tinyCorpus()
	fp1 := fingerprint(d1, buildTinyDB(t, 8))
	fp2 := fingerprint(d2, buildTinyDB(t, 8))
	if fp1 != fp2 {
		t.Fatalf("two fixed-seed parallel builds diverged:\n%s", firstDiff(fp1, fp2))
	}
}

// TestSequentialParallelBuildEquivalence builds once sequentially and
// once with a worker pool; the results must be byte-identical, proving
// parallelism is purely a scheduling concern.
func TestSequentialParallelBuildEquivalence(t *testing.T) {
	d1, d2 := tinyCorpus(), tinyCorpus()
	seq := fingerprint(d1, buildTinyDB(t, 1))
	par := fingerprint(d2, buildTinyDB(t, 8))
	if seq != par {
		t.Fatalf("sequential and parallel builds diverged:\n%s", firstDiff(seq, par))
	}
}

// firstDiff returns the first differing line of two multi-line strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d lines", len(al), len(bl))
}

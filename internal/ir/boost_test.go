package ir

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: a constant boost of 1 leaves the ranking identical to
// unboosted search.
func TestUnitBoostIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ix := NewIndex()
	vocab := []string{"clean", "dirty", "room", "staff", "noise", "view"}
	for d := 0; d < 40; d++ {
		n := 2 + rng.Intn(15)
		toks := make([]string, n)
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		ix.Add(fmt.Sprintf("doc%02d", d), toks)
	}
	one := make([]float64, ix.Len())
	for i := range one {
		one[i] = 1
	}
	f := func(q1, q2 uint8) bool {
		query := []string{vocab[int(q1)%len(vocab)], vocab[int(q2)%len(vocab)]}
		a := ix.Search(query, 10)
		b := ix.SearchBoosted(query, 10, one)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: scaling every boost by a positive constant preserves the
// ranking order (scores scale, order does not change).
func TestBoostScaleInvariance(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", []string{"clean", "room", "clean"})
	ix.Add("b", []string{"clean", "staff"})
	ix.Add("c", []string{"room", "room"})
	base := []float64{0.9, 0.5, 0.7}
	doubled := []float64{1.8, 1.0, 1.4}
	r1 := ix.SearchBoosted([]string{"clean", "room"}, 10, base)
	r2 := ix.SearchBoosted([]string{"clean", "room"}, 10, doubled)
	if len(r1) != len(r2) {
		t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].ID != r2[i].ID {
			t.Errorf("pos %d: %s vs %s", i, r1[i].ID, r2[i].ID)
		}
	}
}

// Property: zero boost removes a document entirely regardless of its
// BM25 score.
func TestZeroBoostExcludes(t *testing.T) {
	ix := NewIndex()
	ix.Add("strong", []string{"clean", "clean", "clean"})
	ix.Add("weak", []string{"clean", "filler", "filler", "filler"})
	res := ix.SearchBoosted([]string{"clean"}, 10, []float64{0, 1})
	for _, r := range res {
		if r.ID == "strong" {
			t.Error("zero-boosted doc returned")
		}
	}
	if len(res) != 1 {
		t.Errorf("got %d results", len(res))
	}
}

func TestDFAndIDF(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", []string{"x", "y"})
	ix.Add("b", []string{"x"})
	ix.Add("c", []string{"z"})
	if ix.DF("x") != 2 || ix.DF("y") != 1 || ix.DF("missing") != 0 {
		t.Errorf("DF wrong: x=%d y=%d", ix.DF("x"), ix.DF("y"))
	}
	if ix.IDF("y") <= ix.IDF("x") {
		t.Error("rarer term should have higher IDF")
	}
	if ix.IDF("missing") <= ix.IDF("y") {
		t.Error("missing term should have the highest IDF")
	}
}

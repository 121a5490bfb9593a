package ir

// SearchBoosted as it stood before the dense accumulator and the bounded
// insertion replaced the score map and the heap, kept verbatim (names
// prefixed) as the reference the new search is compared against bit for
// bit. Test-only.

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

type oracleResultHeap []Result

func (h oracleResultHeap) Len() int { return len(h) }
func (h oracleResultHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].ID > h[j].ID
}
func (h oracleResultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *oracleResultHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *oracleResultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (ix *Index) oracleSearchBoosted(query []string, k int, boost func(id string) float64) []Result {
	if k <= 0 || len(ix.docLen) == 0 {
		return nil
	}
	scores := make(map[int]float64)
	avg := ix.AvgDocLen()
	seen := make(map[string]bool, len(query))
	for _, term := range query {
		if seen[term] {
			continue // query terms are deduplicated, standard BM25 practice
		}
		seen[term] = true
		plist, ok := ix.postings[term]
		if !ok {
			continue
		}
		idf := ix.idf(term)
		for _, p := range plist {
			tf := float64(p.TF)
			dl := float64(ix.docLen[p.Doc])
			scores[int(p.Doc)] += idf * tf * (k1 + 1) / (tf + k1*(1-b+b*dl/avg))
		}
	}
	h := make(oracleResultHeap, 0, k+1)
	heap.Init(&h)
	for doc, s := range scores {
		id := ix.docIDs[doc]
		if boost != nil {
			s *= boost(id)
		}
		if s <= 0 {
			continue
		}
		heap.Push(&h, Result{ID: id, Doc: doc, Score: s})
		if h.Len() > k {
			heap.Pop(&h)
		}
	}
	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Result)
	}
	// Stable ordering for equal scores.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// tieCorpus builds n documents over a tiny vocabulary with only a few
// distinct lengths, so most BM25 scores collide and the id tie-break
// decides the order. Ids are shuffled so id order is not document order.
func tieCorpus(rng *rand.Rand, n int) *Index {
	vocab := []string{"clean", "room", "staff", "view", "noise"}
	ix := NewIndex()
	for _, d := range rng.Perm(n) {
		toks := make([]string, 1+rng.Intn(3))
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		ix.Add(fmt.Sprintf("doc%03d", d), toks)
	}
	return ix
}

func sameResults(got, want []Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("position %d: %s (doc %d) %x, want %s (doc %d) %x", i, got[i].ID, got[i].Doc, got[i].Score, want[i].ID, want[i].Doc, want[i].Score)
		}
	}
	return nil
}

// TestSearchBoostedEqualsOracle: the dense search returns the oracle's
// ids and score bits on random corpora full of score ties, for k around
// the candidate count, with no boost, a mixed boost (zeros and negatives
// included) and an all-zero boost, and for queries with repeated and
// unindexed terms.
func TestSearchBoostedEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	queries := [][]string{
		{"clean"}, {"clean", "room"}, {"room", "clean", "room"}, {"view", "unindexed", "noise", "view"},
		{"unindexed"}, {}, {"staff", "staff", "staff"}, {"clean", "room", "staff", "view", "noise"},
	}
	compared, ties := 0, 0
	for round := 0; round < 30; round++ {
		n := 1 + rng.Intn(120)
		ix := tieCorpus(rng, n)
		mixed := make([]float64, n)
		for i := range mixed {
			mixed[i] = []float64{0, 0.25, 0.5, 1, 1, 2, -1}[rng.Intn(7)]
		}
		for name, boost := range map[string][]float64{"nil": nil, "mixed": mixed, "zero": make([]float64, n)} {
			var fn func(string) float64
			if boost != nil {
				fn = func(id string) float64 { return boost[ix.byExtID[id]] }
			}
			for _, q := range queries {
				for _, k := range []int{1, 2, n - 1, n, n + 1, 50} {
					want := ix.oracleSearchBoosted(q, k, fn)
					got := ix.SearchBoosted(q, k, boost)
					if err := sameResults(got, want); err != nil {
						t.Fatalf("round %d, %s boost, query %v, k=%d: %v", round, name, q, k, err)
					}
					compared++
					for i := 1; i < len(want); i++ {
						if want[i].Score == want[i-1].Score {
							ties++
						}
					}
				}
			}
		}
	}
	if compared < 4000 || ties < 10000 {
		t.Fatalf("%d comparisons over %d tied neighbours: the corpora are not exercising the tie-break", compared, ties)
	}
}

// TestSearchBoostedRejectsAMisSizedBoost: a boost table that does not
// cover the index is a caller bug that must not produce a ranking.
func TestSearchBoostedRejectsAMisSizedBoost(t *testing.T) {
	ix := tieCorpus(rand.New(rand.NewSource(3)), 10)
	for _, n := range []int{0, 9, 11} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "boost table") {
					t.Errorf("a boost of %d entries over 10 documents: recovered %v, want the boost-table panic", n, r)
				}
			}()
			ix.SearchBoosted([]string{"clean"}, 3, make([]float64, n))
		}()
	}
	// The pooled scratch is still clean after the refusals.
	if err := sameResults(ix.Search([]string{"clean"}, 5), ix.oracleSearchBoosted([]string{"clean"}, 5, nil)); err != nil {
		t.Fatal(err)
	}
}

// TestSearchScratchIsSharedSafely: concurrent searches over indexes of
// different sizes draw from one scratch pool and still agree with the
// oracle (run under -race).
func TestSearchScratchIsSharedSafely(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small, large := tieCorpus(rng, 7), tieCorpus(rng, 300)
	type want struct {
		ix  *Index
		q   []string
		res []Result
	}
	var wants []want
	for _, ix := range []*Index{small, large} {
		for _, q := range [][]string{{"clean"}, {"room", "view"}, {"noise", "staff", "clean"}} {
			wants = append(wants, want{ix, q, ix.oracleSearchBoosted(q, 20, nil)})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := wants[(g+i)%len(wants)]
				if got := w.ix.Search(w.q, 20); !reflect.DeepEqual(got, w.res) {
					t.Errorf("goroutine %d: query %v over %d documents diverged", g, w.q, w.ix.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkSearchBoosted(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	vocab := make([]string, 400)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%03d", i)
	}
	const docs = 12000
	ix := NewIndex()
	boost := make([]float64, docs)
	for d := 0; d < docs; d++ {
		toks := make([]string, 20+rng.Intn(60))
		for i := range toks {
			// Squaring skews the draw: w000 is in nearly every document.
			f := rng.Float64()
			toks[i] = vocab[int(f*f*float64(len(vocab)))]
		}
		toks = append(toks, "w000")
		ix.Add(fmt.Sprintf("r%05d", d), toks)
		if rng.Intn(4) > 0 {
			boost[d] = rng.Float64()
		}
	}
	for _, bc := range []struct {
		name  string
		query []string
	}{
		{"rare", []string{"w390", "w371"}},
		{"common", []string{"w000"}},
		{"mixed", []string{"w000", "w120", "w390"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := ix.SearchBoosted(bc.query, 50, boost); len(res) == 0 {
					b.Fatal("no results")
				}
			}
		})
		// The replaced map-and-heap search on the same inputs, for the ratio.
		b.Run(bc.name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			byID := func(id string) float64 { return boost[ix.byExtID[id]] }
			for i := 0; i < b.N; i++ {
				if res := ix.oracleSearchBoosted(bc.query, 50, byID); len(res) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

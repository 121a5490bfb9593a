package ir

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/textproc"
)

func buildIndex() *Index {
	ix := NewIndex()
	ix.Add("h1", textproc.Tokenize("the room was clean and the staff was friendly"))
	ix.Add("h2", textproc.Tokenize("dirty room dirty bathroom dirty everything"))
	ix.Add("h3", textproc.Tokenize("clean clean clean room spotless"))
	ix.Add("h4", textproc.Tokenize("the breakfast was delicious and generous"))
	return ix
}

func TestSearchRanking(t *testing.T) {
	ix := buildIndex()
	res := ix.Search([]string{"clean"}, 10)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2 (h1, h3)", len(res))
	}
	if res[0].ID != "h3" {
		t.Errorf("top result = %s, want h3 (highest tf)", res[0].ID)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Error("results not sorted descending")
		}
	}
}

func TestSearchTopK(t *testing.T) {
	ix := buildIndex()
	res := ix.Search([]string{"room"}, 2)
	if len(res) != 2 {
		t.Fatalf("k=2 returned %d", len(res))
	}
	all := ix.Search([]string{"room"}, 100)
	if res[0].ID != all[0].ID || res[1].ID != all[1].ID {
		t.Error("top-2 disagrees with full ranking prefix")
	}
}

func TestSearchNoMatch(t *testing.T) {
	ix := buildIndex()
	if res := ix.Search([]string{"nonexistentterm"}, 5); len(res) != 0 {
		t.Errorf("got %v for unseen term", res)
	}
	if res := ix.Search([]string{"room"}, 0); res != nil {
		t.Errorf("k=0 should return nil")
	}
}

func TestSearchEmptyIndex(t *testing.T) {
	ix := NewIndex()
	if res := ix.Search([]string{"x"}, 3); len(res) != 0 {
		t.Errorf("empty index returned %v", res)
	}
	if ix.AvgDocLen() != 0 {
		t.Error("AvgDocLen on empty index should be 0")
	}
}

func TestQueryTermDedup(t *testing.T) {
	ix := buildIndex()
	a := ix.Search([]string{"clean"}, 10)
	b := ix.Search([]string{"clean", "clean", "clean"}, 10)
	if len(a) != len(b) {
		t.Fatal("dedup changed result count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("duplicate query terms changed scores: %v vs %v", a[i], b[i])
		}
	}
}

func TestBM25NonNegative(t *testing.T) {
	ix := buildIndex()
	f := func(terms []string) bool {
		for _, r := range ix.Search(terms, 10) {
			if r.Score < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScoreSingleDoc(t *testing.T) {
	ix := buildIndex()
	res := ix.Search([]string{"clean", "room"}, 10)
	for _, r := range res {
		if s := ix.Score(r.ID, []string{"clean", "room"}); s != r.Score {
			t.Errorf("Score(%s) = %v, Search gave %v", r.ID, s, r.Score)
		}
	}
	if s := ix.Score("unknown", []string{"clean"}); s != 0 {
		t.Errorf("unknown doc score = %v", s)
	}
}

// TestScoreDocsEqualsScore: the one-pass scorer gives every document the
// bits the per-document scorer gives it — repeated query terms, terms no
// document holds, unknown and repeated ids included.
func TestScoreDocsEqualsScore(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	vocab := textproc.Tokenize("clean dirty room staff friendly breakfast view quiet noisy bed towel pool bar")
	ix := NewIndex()
	var ids []string
	for d := 0; d < 40; d++ {
		toks := make([]string, 5+rng.Intn(30))
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		ids = append(ids, fmt.Sprintf("h%02d", d))
		ix.Add(ids[d], toks)
	}
	for trial := 0; trial < 200; trial++ {
		query := make([]string, rng.Intn(6))
		for i := range query {
			query[i] = append(vocab, "motorcyclists")[rng.Intn(len(vocab)+1)]
		}
		// A shard asks for its own slice of the replicated index.
		lo := rng.Intn(len(ids))
		ask := append([]string{"unknown", ids[lo]}, ids[lo:lo+rng.Intn(len(ids)-lo+1)]...)
		got := ix.ScoreDocs(ask, query)
		if len(got) != len(ask) {
			t.Fatalf("%d scores for %d ids", len(got), len(ask))
		}
		for i, id := range ask {
			if want := ix.Score(id, query); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("query %v: ScoreDocs gives %s %x, Score %x", query, id, got[i], want)
			}
		}
	}
}

func TestSearchBoosted(t *testing.T) {
	ix := buildIndex()
	// Boost h1 heavily; suppress h3 to zero (documents h1..h4 in Add order).
	res := ix.SearchBoosted([]string{"clean"}, 10, []float64{10, 1, 0, 1})
	if len(res) != 1 || res[0].ID != "h1" {
		t.Errorf("boosted search = %v, want only h1", res)
	}
}

func TestTopKMatchesFullSort(t *testing.T) {
	// Property: heap top-k must equal the first k of the fully sorted list.
	rng := rand.New(rand.NewSource(11))
	ix := NewIndex()
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for d := 0; d < 60; d++ {
		n := 3 + rng.Intn(20)
		toks := make([]string, n)
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		ix.Add(fmt.Sprintf("d%02d", d), toks)
	}
	query := []string{"alpha", "gamma"}
	full := ix.Search(query, 1000)
	for _, k := range []int{1, 3, 7, 20} {
		got := ix.Search(query, k)
		want := full
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("k=%d pos %d: got %v want %v", k, i, got[i], want[i])
			}
		}
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	ix := NewIndex()
	ix.Add("b", []string{"x", "pad"})
	ix.Add("a", []string{"x", "pad"})
	res := ix.Search([]string{"x"}, 10)
	if len(res) != 2 || res[0].ID != "a" {
		t.Errorf("ties must break by id: %v", res)
	}
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(5, 5); s != 0.5 {
		t.Errorf("Sigmoid(5,5) = %v, want 0.5", s)
	}
	if s := Sigmoid(100, 0); s != 1 {
		t.Errorf("saturated high = %v", s)
	}
	if s := Sigmoid(-100, 0); s != 0 {
		t.Errorf("saturated low = %v", s)
	}
	// Monotone.
	prev := -1.0
	for x := -10.0; x <= 10; x += 0.5 {
		v := Sigmoid(x, 0)
		if v < prev {
			t.Fatal("sigmoid not monotone")
		}
		prev = v
	}
}

func TestEntityDocs(t *testing.T) {
	docs := map[string][]string{
		"hotelA": {"The room was clean.", "Great breakfast."},
		"hotelB": {"Dirty bathroom."},
	}
	ix := EntityDocs(docs)
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
	res := ix.Search([]string{"clean"}, 5)
	if len(res) != 1 || res[0].ID != "hotelA" {
		t.Errorf("Search(clean) = %v", res)
	}
	res = ix.Search([]string{"dirty"}, 5)
	if len(res) != 1 || res[0].ID != "hotelB" {
		t.Errorf("Search(dirty) = %v", res)
	}
}

func TestEntityDocsDeterministicOrder(t *testing.T) {
	docs := map[string][]string{"z": {"a b"}, "a": {"a b"}, "m": {"a b"}}
	ix1 := EntityDocs(docs)
	ix2 := EntityDocs(docs)
	r1 := ix1.Search([]string{"a"}, 10)
	r2 := ix2.Search([]string{"a"}, 10)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("EntityDocs is nondeterministic")
		}
	}
	ids := []string{r1[0].ID, r1[1].ID, r1[2].ID}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("equal-score ids not sorted: %v", ids)
	}
}

func TestAvgDocLen(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", []string{"x", "y"})
	ix.Add("b", []string{"x", "y", "z", "w"})
	if got := ix.AvgDocLen(); got != 3 {
		t.Errorf("AvgDocLen = %v, want 3", got)
	}
}

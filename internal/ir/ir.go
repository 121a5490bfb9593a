// Package ir implements the information-retrieval substrate of OpineDB:
// an inverted index with Okapi BM25 ranking and heap-based top-k retrieval.
//
// The paper uses BM25 in three roles, all served by this package:
//  1. the co-occurrence interpreter ranks reviews by BM25(d,q)·senti(d)
//     (Eq. 3);
//  2. the text-retrieval fallback scores entity documents by
//     sigmoid(BM25(D,q) − c);
//  3. the GZ12 baseline (opinion-based entity ranking) is pure BM25 over
//     per-entity concatenated review documents.
package ir

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/textproc"
)

// BM25 free parameters; the classic defaults from Robertson et al.
const (
	k1 = 1.2
	b  = 0.75
)

// Posting records one document's term frequency for a term. Exported
// (with exported fields) so the index state can be serialized by the
// snapshot layer without conversion.
type Posting struct {
	Doc int
	TF  int
}

// Index is an inverted index over documents added with Add. The zero value
// is not usable; call NewIndex.
type Index struct {
	postings map[string][]Posting
	docLen   []int
	docIDs   []string // external ids, parallel to internal doc numbers
	byExtID  map[string]int
	totalLen int64
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		postings: make(map[string][]Posting),
		byExtID:  make(map[string]int),
	}
}

// Add indexes a document under the external id. Adding the same id twice
// creates two separate documents; callers are expected to use unique ids.
// It returns the internal document number.
func (ix *Index) Add(id string, tokens []string) int {
	doc := len(ix.docLen)
	ix.docIDs = append(ix.docIDs, id)
	ix.byExtID[id] = doc
	ix.docLen = append(ix.docLen, len(tokens))
	ix.totalLen += int64(len(tokens))
	tf := make(map[string]int, len(tokens))
	for _, t := range tokens {
		tf[t]++
	}
	for t, n := range tf {
		ix.postings[t] = append(ix.postings[t], Posting{Doc: doc, TF: n})
	}
	return doc
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return len(ix.docLen) }

// DF returns the number of indexed documents containing term.
func (ix *Index) DF(term string) int { return len(ix.postings[term]) }

// IDF exposes the BM25 idf of a term for callers that gate on term
// informativeness (the co-occurrence interpreter).
func (ix *Index) IDF(term string) float64 { return ix.idf(term) }

// AvgDocLen returns the mean document length.
func (ix *Index) AvgDocLen() float64 {
	if len(ix.docLen) == 0 {
		return 0
	}
	return float64(ix.totalLen) / float64(len(ix.docLen))
}

// idf is the BM25 idf with the standard +1 floor to keep scores
// non-negative.
func (ix *Index) idf(term string) float64 {
	n := float64(len(ix.postings[term]))
	N := float64(len(ix.docLen))
	return math.Log(1 + (N-n+0.5)/(n+0.5))
}

// Result is a scored document.
type Result struct {
	ID    string
	Score float64
}

// resultHeap is a min-heap on Score used for top-k selection. Ties break
// by id — the worst element among equals is the lexicographically largest
// id — so the retained top-k set is deterministic even though candidates
// arrive in map-iteration order.
type resultHeap []Result

func (h resultHeap) Len() int { return len(h) }
func (h resultHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].ID > h[j].ID
}
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Search returns the top-k documents by BM25 score for the query tokens,
// sorted by descending score (ties broken by id for determinism).
// Documents with zero score are omitted.
func (ix *Index) Search(query []string, k int) []Result {
	return ix.SearchBoosted(query, k, nil)
}

// SearchBoosted is Search with an optional per-document multiplicative
// boost (by external id). This implements Eq. 3's BM25(d,q)·senti(d)
// without a second pass: the co-occurrence interpreter passes the
// precomputed positive-sentiment weight of each review as the boost.
// A nil boost function means no boosting. Documents whose boosted score is
// <= 0 are omitted.
func (ix *Index) SearchBoosted(query []string, k int, boost func(id string) float64) []Result {
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
			scores[p.Doc] += idf * tf * (k1 + 1) / (tf + k1*(1-b+b*dl/avg))
		}
	}
	h := make(resultHeap, 0, k+1)
	heap.Init(&h)
	for doc, s := range scores {
		id := ix.docIDs[doc]
		if boost != nil {
			s *= boost(id)
		}
		if s <= 0 {
			continue
		}
		heap.Push(&h, Result{ID: id, Score: s})
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

// Score returns the BM25 score of a single document (by external id) for
// the query tokens; 0 if the id is unknown. Used by the text-retrieval
// fallback, which scores one entity document at a time.
func (ix *Index) Score(id string, query []string) float64 {
	doc, ok := ix.byExtID[id]
	if !ok {
		return 0
	}
	avg := ix.AvgDocLen()
	var s float64
	seen := make(map[string]bool, len(query))
	for _, term := range query {
		if seen[term] {
			continue
		}
		seen[term] = true
		for _, p := range ix.postings[term] {
			if p.Doc != doc {
				continue
			}
			tf := float64(p.TF)
			dl := float64(ix.docLen[doc])
			s += ix.idf(term) * tf * (k1 + 1) / (tf + k1*(1-b+b*dl/avg))
			break
		}
	}
	return s
}

// ScoreDocs returns Score(id, query) for every id, in one pass over each
// distinct query term's postings instead of one pass per document. A
// document's terms are still summed in query order, so each score carries
// exactly the bits Score gives it.
func (ix *Index) ScoreDocs(ids []string, query []string) []float64 {
	out := make([]float64, len(ids))
	// acc[doc] is doc's running sum; last[doc] is 0 for a document nobody
	// asked for, else 1 + the number of query terms already counted for it
	// (Score counts a term's first posting for a document only).
	acc := make([]float64, len(ix.docLen))
	last := make([]int, len(ix.docLen))
	for _, id := range ids {
		if doc, ok := ix.byExtID[id]; ok {
			last[doc] = 1
		}
	}
	avg := ix.AvgDocLen()
	for ti, term := range query {
		if slices.Index(query, term) < ti {
			continue
		}
		idf := ix.idf(term)
		for _, p := range ix.postings[term] {
			if last[p.Doc] == 0 || last[p.Doc] > ti+1 {
				continue
			}
			last[p.Doc] = ti + 2
			tf := float64(p.TF)
			dl := float64(ix.docLen[p.Doc])
			acc[p.Doc] += idf * tf * (k1 + 1) / (tf + k1*(1-b+b*dl/avg))
		}
	}
	for i, id := range ids {
		if doc, ok := ix.byExtID[id]; ok {
			out[i] = acc[doc]
		}
	}
	return out
}

// Sigmoid converts a BM25 score into a pseudo degree of truth,
// sigmoid(score − c), as the text-retrieval fallback of §3.2 prescribes.
func Sigmoid(score, c float64) float64 {
	x := score - c
	if x > 20 {
		return 1
	}
	if x < -20 {
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

// IndexState is the exported serialization seam for Index: the complete
// inverted-index state except byExtID, which is rebuilt from DocIDs on
// reconstruction. Slices and maps are shared with the live index, not
// copied — treat a state taken from a live Index as read-only.
type IndexState struct {
	Postings map[string][]Posting
	DocLen   []int
	DocIDs   []string
	TotalLen int64
}

// State exports the index for serialization.
func (ix *Index) State() IndexState {
	return IndexState{Postings: ix.postings, DocLen: ix.docLen, DocIDs: ix.docIDs, TotalLen: ix.totalLen}
}

// NewIndexFromState reconstructs an index from exported state. BM25 scores
// from the reconstructed index are bit-identical to the original's: every
// statistic entering the formula (tf, df, doc lengths, totals) is restored
// exactly, and posting-list order is preserved.
func NewIndexFromState(st IndexState) (*Index, error) {
	if len(st.DocLen) != len(st.DocIDs) {
		return nil, fmt.Errorf("ir: state has %d doc lengths but %d doc ids", len(st.DocLen), len(st.DocIDs))
	}
	n := len(st.DocIDs)
	for term, plist := range st.Postings {
		for _, p := range plist {
			if p.Doc < 0 || p.Doc >= n {
				return nil, fmt.Errorf("ir: state posting for %q references doc %d of %d", term, p.Doc, n)
			}
		}
	}
	ix := &Index{
		postings: st.Postings,
		docLen:   st.DocLen,
		docIDs:   st.DocIDs,
		byExtID:  make(map[string]int, n),
		totalLen: st.TotalLen,
	}
	if ix.postings == nil {
		ix.postings = make(map[string][]Posting)
	}
	// Rebuild the external-id lookup exactly as repeated Add calls would:
	// later duplicates win.
	for doc, id := range ix.docIDs {
		ix.byExtID[id] = doc
	}
	return ix, nil
}

// EntityDocs builds one concatenated document per entity from its reviews,
// following GZ12's entity-document model ("represents each entity by a
// single document D obtained by combining all source reviews").
func EntityDocs(reviewsByEntity map[string][]string) *Index {
	ix := NewIndex()
	ids := make([]string, 0, len(reviewsByEntity))
	for id := range reviewsByEntity {
		ids = append(ids, id)
	}
	sort.Strings(ids) // deterministic internal numbering
	for _, id := range ids {
		var tokens []string
		for _, rv := range reviewsByEntity[id] {
			tokens = append(tokens, textproc.Tokenize(rv)...)
		}
		ix.Add(id, tokens)
	}
	return ix
}

// Package ir implements the information-retrieval substrate of OpineDB:
// an inverted index with Okapi BM25 ranking and bounded top-k retrieval.
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
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/textproc"
)

// BM25 free parameters; the classic defaults from Robertson et al.
const (
	k1 = 1.2
	b  = 0.75
)

// Posting records one document's term frequency for a term. Exported
// (with exported fields) so the index state can be serialized by the
// snapshot layer without conversion. Both fields are int32, so a posting
// is 8 bytes: the indexes hold hundreds of thousands of them on every
// node, and neither a document number nor a term frequency comes near
// 2³¹. BM25 reads them through float64 exactly as it would an int.
type Posting struct {
	Doc int32
	TF  int32
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
		ix.postings[t] = append(ix.postings[t], Posting{Doc: int32(doc), TF: int32(n)})
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

// Result is a scored document: its external id, its internal document
// number (the number Add returned) and its score.
type Result struct {
	ID    string
	Doc   int
	Score float64
}

// Search returns the top-k documents by BM25 score for the query tokens,
// sorted by descending score (ties broken by id for determinism).
// Documents with zero score are omitted.
func (ix *Index) Search(query []string, k int) []Result {
	return ix.SearchBoosted(query, k, nil)
}

// searchScratch is SearchBoosted's per-call working memory, pooled so a
// search allocates only its result. acc is indexed by internal document
// number and is all zero between calls; touched lists the documents a call
// scored, which is what it has to zero again.
type searchScratch struct {
	acc     []float64
	touched []int
	top     []scoredDoc
}

var searchScratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// scoredDoc is one candidate of the bounded selection.
type scoredDoc struct {
	doc   int
	score float64
}

// ranksBefore is the result order: score descending, then id ascending.
func (ix *Index) ranksBefore(c, e scoredDoc) bool {
	if c.score != e.score {
		return c.score > e.score
	}
	return ix.docIDs[c.doc] < ix.docIDs[e.doc]
}

// SearchBoosted is Search with an optional per-document multiplicative
// boost, indexed by internal document number (the number Add returned).
// This implements Eq. 3's BM25(d,q)·senti(d) without a second pass: the
// co-occurrence interpreter passes the positive-sentiment weight of each
// review as the boost. A nil boost means no boosting; a non-nil one must
// cover the index exactly, and SearchBoosted panics when it does not — a
// caller that let the two drift would otherwise get a wrong ranking.
// Documents whose boosted score is <= 0 are omitted.
//
// Float order: a document's terms are summed in query order into one
// accumulator and the boost multiplies the sum last. Selection keeps the k
// best under (score descending, id ascending), a total order over distinct
// ids, so neither the retained set nor its order depends on the order
// candidates are met in.
func (ix *Index) SearchBoosted(query []string, k int, boost []float64) []Result {
	if boost != nil && len(boost) != len(ix.docLen) {
		panic(fmt.Sprintf("ir: boost table covers %d documents, the index holds %d", len(boost), len(ix.docLen)))
	}
	if k <= 0 || len(ix.docLen) == 0 {
		return nil
	}
	sc := searchScratchPool.Get().(*searchScratch)
	if len(sc.acc) < len(ix.docLen) {
		sc.acc = make([]float64, len(ix.docLen))
	}
	acc, touched, top := sc.acc, sc.touched[:0], sc.top[:0]
	avg := ix.AvgDocLen()
	for ti, term := range query {
		if slices.Index(query, term) < ti {
			continue // query terms are deduplicated, standard BM25 practice
		}
		plist := ix.postings[term]
		if len(plist) == 0 {
			continue
		}
		idf := ix.idf(term)
		for _, p := range plist {
			if boost != nil && boost[p.Doc] == 0 {
				continue // its boosted score would be 0 whatever it matched
			}
			// Every term contribution is strictly positive (idf > 0, tf >= 1),
			// so a zero accumulator means a document not met before.
			if acc[p.Doc] == 0 {
				touched = append(touched, int(p.Doc))
			}
			tf := float64(p.TF)
			dl := float64(ix.docLen[p.Doc])
			acc[p.Doc] += idf * tf * (k1 + 1) / (tf + k1*(1-b+b*dl/avg))
		}
	}
	for _, doc := range touched {
		c := scoredDoc{doc: doc, score: acc[doc]}
		acc[doc] = 0
		if boost != nil {
			c.score *= boost[doc]
		}
		if c.score <= 0 {
			continue
		}
		if len(top) >= k {
			if !ix.ranksBefore(c, top[k-1]) {
				continue
			}
			top = top[:k-1]
		}
		pos := sort.Search(len(top), func(i int) bool { return ix.ranksBefore(c, top[i]) })
		top = append(top, scoredDoc{})
		copy(top[pos+1:], top[pos:])
		top[pos] = c
	}
	out := make([]Result, len(top))
	for i, e := range top {
		out[i] = Result{ID: ix.docIDs[e.doc], Doc: e.doc, Score: e.score}
	}
	sc.touched, sc.top = touched, top
	searchScratchPool.Put(sc)
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
			if int(p.Doc) != doc {
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
			if p.Doc < 0 || int(p.Doc) >= n {
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
	for doc, id := range ix.docIDs {
		ix.byExtID[id] = doc
	}
	// Every writer of this state adds each id once; a repeated one would
	// make two documents answer to one id.
	if len(ix.byExtID) != n {
		return nil, fmt.Errorf("ir: state has %d doc ids but only %d distinct", n, len(ix.byExtID))
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

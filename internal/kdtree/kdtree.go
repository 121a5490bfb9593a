// Package kdtree implements the similarity-search index of Appendix B:
// a k-d tree (Bentley 1975) over phrase-embedding vectors plus a
// word-substitution index.
//
// The observation behind the substitution index is that a short query
// predicate's most similar linguistic variation typically differs from it
// by at most one word ("really clean room" vs "very clean room"). For each
// word w in the linguistic domain the index precomputes the closest word
// w'; at query time each word of the query is tentatively replaced by its
// precomputed substitute and the result is looked up in a phrase
// dictionary. Only when no substitution hits does the engine pay for a
// full k-d tree similarity search.
//
// The package is an experiment-only structure: the serving engine's stage
// 1 is always the exact Eq. 2 scan over the linguistic domain
// (internal/core), and only the Appendix B experiment in internal/harness
// builds a SubstitutionIndex, to measure how often it would avoid that
// scan and how often its answer agrees with it. Nothing persists an index.
package kdtree

import (
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/embedding"
	"repro/internal/textproc"
)

// Tree is a k-d tree over labeled vectors.
type Tree struct {
	root *node
	dim  int
}

type node struct {
	label       string
	point       embedding.Vector
	axis        int
	left, right *node
}

// item pairs a label and vector during construction.
type item struct {
	label string
	point embedding.Vector
}

// Build constructs a balanced k-d tree from labels and their vectors.
// Labels and points must be parallel slices of equal length; Build returns
// nil for empty input.
func Build(labels []string, points []embedding.Vector) *Tree {
	if len(labels) == 0 || len(labels) != len(points) {
		return nil
	}
	items := make([]item, len(labels))
	for i := range labels {
		items[i] = item{label: labels[i], point: points[i]}
	}
	dim := len(points[0])
	t := &Tree{dim: dim}
	t.root = build(items, 0, dim)
	return t
}

func build(items []item, depth, dim int) *node {
	if len(items) == 0 {
		return nil
	}
	axis := depth % dim
	sort.Slice(items, func(i, j int) bool {
		if items[i].point[axis] != items[j].point[axis] {
			return items[i].point[axis] < items[j].point[axis]
		}
		return items[i].label < items[j].label // determinism
	})
	mid := len(items) / 2
	return &node{
		label: items[mid].label,
		point: items[mid].point,
		axis:  axis,
		left:  build(items[:mid], depth+1, dim),
		right: build(items[mid+1:], depth+1, dim),
	}
}

// Size returns the number of points in the tree.
func (t *Tree) Size() int {
	if t == nil {
		return 0
	}
	var count func(*node) int
	count = func(n *node) int {
		if n == nil {
			return 0
		}
		return 1 + count(n.left) + count(n.right)
	}
	return count(t.root)
}

// Nearest returns the label and Euclidean distance of the point nearest to
// q, or ("", +Inf) on an empty tree.
func (t *Tree) Nearest(q embedding.Vector) (string, float64) {
	if t == nil || t.root == nil {
		return "", math.Inf(1)
	}
	best := struct {
		label string
		d2    float64
	}{"", math.Inf(1)}
	var search func(*node)
	search = func(n *node) {
		if n == nil {
			return
		}
		d2 := sqDist(q, n.point)
		if d2 < best.d2 || (d2 == best.d2 && n.label < best.label) {
			best.label, best.d2 = n.label, d2
		}
		diff := q[n.axis] - n.point[n.axis]
		near, far := n.left, n.right
		if diff > 0 {
			near, far = n.right, n.left
		}
		search(near)
		if diff*diff <= best.d2 {
			search(far)
		}
	}
	search(t.root)
	return best.label, math.Sqrt(best.d2)
}

func sqDist(a, b embedding.Vector) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// SubstitutionIndex implements the Appendix B fast path. It holds, for each
// word seen in a linguistic domain, the precomputed closest other word
// under the IDF-weighted embedding metric, together with a dictionary of
// known phrases and a k-d tree for the slow path.
//
// Phrases are matched under a normal form — stopword-stripped, naively
// singularized, alphabetically sorted content words — so that "has really
// clean rooms" is one word substitution (really → very) away from the
// stored variation "room very clean".
type SubstitutionIndex struct {
	substitute map[string]string
	// phrases maps normalized phrase → original phrase.
	phrases map[string]string
	tree    *Tree
	model   *embedding.Model

	// Stats counts fast-path vs slow-path lookups, reported in the
	// Appendix B experiment. Updated atomically: Lookup is safe to call from
	// concurrent goroutines. Read via the *Hits accessors
	// (or FastFraction) for a consistent snapshot.
	fastHits  atomic.Int64
	slowHits  atomic.Int64
	exactHits atomic.Int64
}

// FastHits counts lookups resolved by word substitution or dropping.
func (ix *SubstitutionIndex) FastHits() int { return int(ix.fastHits.Load()) }

// SlowHits counts lookups that fell back to the k-d tree search.
func (ix *SubstitutionIndex) SlowHits() int { return int(ix.slowHits.Load()) }

// ExactHits counts lookups resolved by an exact normalized-form hit.
func (ix *SubstitutionIndex) ExactHits() int { return int(ix.exactHits.Load()) }

// NewSubstitutionIndex builds the index over the phrases of a linguistic
// domain. The model supplies vectors and IDF weights.
func NewSubstitutionIndex(phrases []string, model *embedding.Model) *SubstitutionIndex {
	ix := &SubstitutionIndex{
		substitute: make(map[string]string),
		phrases:    make(map[string]string, len(phrases)),
		model:      model,
	}
	wordSet := map[string]bool{}
	var labels []string
	var points []embedding.Vector
	for _, p := range phrases {
		norm, normToks := normalizePhrase(p)
		if _, dup := ix.phrases[norm]; !dup {
			ix.phrases[norm] = p
		}
		labels = append(labels, p)
		points = append(points, model.Rep(p))
		for _, w := range normToks {
			wordSet[w] = true
		}
	}
	ix.tree = Build(labels, points)

	// Precompute, for every vocabulary word w, the closest domain word w'
	// by |w2v(w)·idf(w) − w2v(w')·idf(w')| (Appendix B's metric). Query
	// words are drawn from the whole vocabulary ("really"), while
	// substitutes must come from the linguistic domain ("very") for the
	// substituted phrase to have a chance of a dictionary hit.
	domainWords := make([]string, 0, len(wordSet))
	for w := range wordSet {
		domainWords = append(domainWords, w)
	}
	sort.Strings(domainWords)
	weight := func(w string) (embedding.Vector, bool) {
		v := model.Vec(w)
		if v == nil {
			return nil, false
		}
		wv := v.Clone()
		wv.Scale(model.IDF(w))
		return wv, true
	}
	domainVecs := make(map[string]embedding.Vector, len(domainWords))
	for _, w := range domainWords {
		if wv, ok := weight(w); ok {
			domainVecs[w] = wv
		}
	}
	allWords := model.Vocab()
	sort.Strings(allWords)
	for _, w := range allWords {
		wv, ok := weight(w)
		if !ok {
			continue
		}
		bestW, bestD := "", math.Inf(1)
		for _, o := range domainWords {
			if o == w {
				continue
			}
			ov, ok := domainVecs[o]
			if !ok {
				continue
			}
			if d := sqDist(wv, ov); d < bestD {
				bestW, bestD = o, d
			}
		}
		if bestW != "" {
			ix.substitute[w] = bestW
		}
	}
	return ix
}

// Lookup resolves a query phrase to its most similar known phrase.
// It returns the matched phrase and whether the expensive k-d tree search
// was avoided (exact normalized hit or single-word substitution hit).
func (ix *SubstitutionIndex) Lookup(query string) (match string, fast bool) {
	norm, toks := normalizePhrase(query)
	if orig, ok := ix.phrases[norm]; ok {
		ix.exactHits.Add(1)
		return orig, true
	}
	// Try replacing each word with its precomputed substitute.
	for i, w := range toks {
		sub, ok := ix.substitute[w]
		if !ok {
			continue
		}
		if orig, ok := ix.phrases[joinReplaceSorted(toks, i, sub)]; ok {
			ix.fastHits.Add(1)
			return orig, true
		}
	}
	// Try dropping one word: queries often add a verb or noun the stored
	// variation lacks ("HAS firm beds" vs "beds firm").
	for i := range toks {
		if orig, ok := ix.phrases[joinDropSorted(toks, i)]; ok {
			ix.fastHits.Add(1)
			return orig, true
		}
		// Drop + substitute another word.
		for j, w := range toks {
			if j == i {
				continue
			}
			if sub, ok := ix.substitute[w]; ok {
				dropped := append(append([]string{}, toks[:i]...), toks[i+1:]...)
				k := j
				if j > i {
					k = j - 1
				}
				if orig, ok := ix.phrases[joinReplaceSorted(dropped, k, sub)]; ok {
					ix.fastHits.Add(1)
					return orig, true
				}
			}
		}
	}
	// Slow path: full k-d tree similarity search.
	ix.slowHits.Add(1)
	label, _ := ix.tree.Nearest(ix.model.Rep(query))
	return label, false
}

// normalizePhrase maps a phrase to its normal form: lowercase tokens,
// stopwords removed, naive singularization, sorted. Returns the joined
// form and the token list.
func normalizePhrase(p string) (string, []string) {
	raw := textproc.Tokenize(p)
	toks := make([]string, 0, len(raw))
	for _, t := range raw {
		if textproc.IsStopword(t) {
			continue
		}
		toks = append(toks, singular(t))
	}
	sort.Strings(toks)
	return strings.Join(toks, " "), toks
}

// singular strips a plural 's' from words longer than 3 runes ("rooms" →
// "room") while leaving short words and double-s endings alone.
func singular(w string) string {
	if len(w) > 3 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") {
		return w[:len(w)-1]
	}
	return w
}

// joinReplaceSorted substitutes toks[i] with sub, re-sorts, and joins.
func joinReplaceSorted(toks []string, i int, sub string) string {
	out := append([]string{}, toks...)
	out[i] = singular(sub)
	sort.Strings(out)
	return strings.Join(out, " ")
}

// joinDropSorted removes toks[i] and joins the (already sorted) rest.
func joinDropSorted(toks []string, i int) string {
	out := append(append([]string{}, toks[:i]...), toks[i+1:]...)
	return strings.Join(out, " ")
}

// FastFraction returns the fraction of non-exact lookups resolved without
// a tree search (the paper reports 54.5%).
func (ix *SubstitutionIndex) FastFraction() float64 {
	fast, slow := ix.fastHits.Load(), ix.slowHits.Load()
	if fast+slow == 0 {
		return 0
	}
	return float64(fast) / float64(fast+slow)
}

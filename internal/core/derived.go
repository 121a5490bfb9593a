package core

// Derived state: what query processing reads that is a pure function of the
// persisted state (schema, extractions, review sentiments, embedding model,
// review index) and is therefore never serialized. buildDerived is the one
// place it is built — Build and FromState both end in it, so ShardDB,
// MergeShards and snapshot load get every structure here for free — and
// ApplyPrepared is the one place it is maintained.

import (
	"slices"

	"repro/internal/embedding"
	"repro/internal/sentiment"
)

// domainTable is one attribute's linguistic domain compiled for the stage-1
// scan (Eq. 2): the variations that carry a marker, sorted, with everything
// the scan reads about variation i at index i of a flat slice. The domain,
// the markers and the embedding model are frozen at build time, so a table
// is never invalidated.
type domainTable struct {
	phrases []string
	// reps holds the Eq. 1 representation of phrases[i] at
	// [i*dim : (i+1)*dim]; norms[i] is its Euclidean norm.
	reps    []float64
	norms   []float64
	sentis  []float64 // sentiment.ScorePhrase(phrases[i])
	markers []int     // marker ordinal of phrases[i]
}

func newDomainTable(attr *SubjectiveAttribute, m *embedding.Model) *domainTable {
	t := &domainTable{phrases: make([]string, 0, len(attr.phraseMarker))}
	for p := range attr.DomainPhrases {
		if _, ok := attr.phraseMarker[p]; ok {
			t.phrases = append(t.phrases, p)
		}
	}
	slices.Sort(t.phrases)
	n := len(t.phrases)
	t.reps = make([]float64, 0, n*m.Dim())
	t.norms, t.sentis, t.markers = make([]float64, n), make([]float64, n), make([]int, n)
	for i, p := range t.phrases {
		rep := m.Rep(p)
		t.reps = append(t.reps, rep...)
		t.norms[i] = rep.Norm()
		t.sentis[i] = sentiment.ScorePhrase(p)
		t.markers[i] = attr.phraseMarker[p]
	}
	return t
}

// cosine is embedding.Cosine(q, rep of variation i) with both norms already
// taken: Vector.Dot's single accumulator in dimension order, divided by
// |q|·|c|; 0 when either vector is zero.
func (t *domainTable) cosine(i int, q embedding.Vector, qNorm float64) float64 {
	cNorm := t.norms[i]
	if qNorm == 0 || cNorm == 0 {
		return 0
	}
	return q.Dot(t.reps[i*len(q):(i+1)*len(q)]) / (qNorm * cNorm)
}

// reviewBoostOf is Eq. 3's senti(d) as the co-occurrence search applies it:
// only positive reviews participate (§3.2).
func reviewBoostOf(senti float64) float64 {
	if senti <= 0 {
		return 0
	}
	return senti
}

// buildDerived rebuilds every derived structure from the state db already
// holds: attribute ordinals and domain tables, the extraction access paths
// and co-occurrence statistics (in extraction-id order), and the review
// boost table beside ReviewIndex.
func (db *DB) buildDerived() {
	for i, attr := range db.Attrs {
		attr.ord = i
		attr.domain = newDomainTable(attr, db.Embed)
	}
	db.extIndex = map[string]map[string][]int{}
	db.extByReview = map[string][]reviewOpinion{}
	db.reviewsWithAttrCount = make([]int, len(db.Attrs))
	for i := range db.Extractions {
		db.indexExtraction(&db.Extractions[i])
	}
	db.positiveReviews = 0
	for _, s := range db.ReviewSentiments {
		if s > 0 {
			db.positiveReviews++
		}
	}
	docIDs := db.ReviewIndex.State().DocIDs
	db.reviewBoost = make([]float64, len(docIDs))
	for doc, id := range docIDs {
		db.reviewBoost[doc] = reviewBoostOf(db.ReviewSentiments[id])
	}
}

// indexExtraction enters one extraction, whose review's sentiment is
// already recorded, into the access paths: extIndex, extByReview and — for
// the first extraction of its attribute in a positive review — the idf(A)
// denominator.
func (db *DB) indexExtraction(ext *Extraction) {
	byEntity := db.extIndex[ext.Attribute]
	if byEntity == nil {
		byEntity = map[string][]int{}
		db.extIndex[ext.Attribute] = byEntity
	}
	byEntity[ext.EntityID] = append(byEntity[ext.EntityID], ext.ID)
	a := db.attrByName[ext.Attribute].ord
	inReview := db.extByReview[ext.ReviewID]
	db.extByReview[ext.ReviewID] = append(inReview, reviewOpinion{attr: int32(a), marker: int32(ext.Marker)})
	if db.ReviewSentiments[ext.ReviewID] <= 0 {
		return
	}
	for _, other := range inReview {
		if int(other.attr) == a {
			return
		}
	}
	db.reviewsWithAttrCount[a]++
}

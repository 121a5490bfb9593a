// Package core implements OpineDB, the subjective database system of the
// paper: the data model (linguistic domains, markers, marker summaries),
// the database construction pipeline (§4), the subjective query
// interpreter (§3.2), membership functions (§3.3), and fuzzy-ranked query
// execution (§3.1).
//
// Concurrency: a built DB is safe for unlimited concurrent readers with
// no external locking — Query, QueryWithOptions, RankPredicates, Execute,
// TopKThreshold, Interpret, InterpretW2VOnly, InterpretCooccurOnly,
// ProvenanceOf and every other read-only accessor may be called
// from any number of goroutines simultaneously. Query processing memoizes
// deterministic derived values (interpretations, prepare-path domain
// matches, TA degree lists) in sharded RWMutex caches (cache.go), so a warm cache
// costs one shard-local read lock per lookup and results are identical to
// a sequential run. Mutations — Build-time helpers aside, ApplyReview
// (and its AddReview alias), RebuildSummaries, RestoreSummaries,
// SetFuzzyVariant and SetW2VThreshold — are NOT safe concurrently with
// readers or each other; callers that mutate a live database must provide
// their own writer-exclusion (internal/server holds a stop-the-world
// RWMutex around POST /reviews for exactly this reason). The relational
// layer underneath is independently goroutine-safe.
//
// Relations: queries reference a single relation (§2 assumes one
// select-from-where block); the engine binds any FROM name to the
// Entities relation, so `FROM Hotels` and `FROM Entities` are equivalent.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/embedding"
	"repro/internal/extract"
	"repro/internal/fuzzy"
	"repro/internal/ir"
	"repro/internal/relstore"
)

// Marker is one designer-visible point of a subjective attribute's scale
// (§2): a representative phrase of the linguistic domain, its embedding
// centroid and average sentiment.
type Marker struct {
	// Name is the marker's phrase ("very clean", "luxurious").
	Name string
	// Sentiment is the average sentiment of phrases assigned to the marker.
	Sentiment float64
	// Centroid is the mean embedding of assigned phrases.
	Centroid embedding.Vector
}

// SubjectiveAttribute is one subjective attribute of the schema with its
// linguistic domain and marker set.
type SubjectiveAttribute struct {
	Name string
	// Categorical is true for non-linear marker summaries (§2).
	Categorical bool
	// Markers are ordered worst→best for linear attributes (by sentiment);
	// arbitrary but fixed for categorical ones.
	Markers []Marker
	// DomainPhrases is the linguistic domain: every distinct opinion
	// phrase assigned to the attribute, with its observed count.
	DomainPhrases map[string]int
	// phraseMarker caches each domain phrase's marker assignment.
	phraseMarker map[string]int
	// ord is the attribute's position in DB.Attrs (addAttr) and domain its
	// compiled linguistic domain (buildDerived).
	ord    int
	domain *domainTable
}

// MarkerOf returns the marker index a domain phrase maps to and whether
// the phrase is in the linguistic domain.
func (a *SubjectiveAttribute) MarkerOf(phrase string) (int, bool) {
	m, ok := a.phraseMarker[phrase]
	return m, ok
}

// MarkerSummary is the aggregate view of one (entity, attribute) pair
// (§2): a histogram over markers plus the precomputed features query
// processing needs (per-marker sentiment totals, embedding sums and
// centroid norms), and provenance links back to the contributing
// extractions.
type MarkerSummary struct {
	// Counts[i] is the number of phrases mapped to marker i.
	Counts []float64
	// SentSum[i] is the summed sentiment of phrases mapped to marker i.
	SentSum []float64
	// VecSum[i] is the summed embedding of phrases mapped to marker i.
	VecSum []embedding.Vector
	// Total is the total number of contributing phrases.
	Total float64
	// Provenance[i] lists extraction ids contributing to marker i.
	Provenance [][]int
	// centroidNorms[i] is Centroid(i).Norm(), precomputed after
	// construction — the "features precomputed for each marker" of
	// §5.4.2. A centroid only moves on an owned write, so the cosine's |c|
	// is not recomputed per query; the centroid itself is never stored,
	// CentroidDot reads it from VecSum.
	centroidNorms []float64
}

// finalize precomputes the per-marker centroid norms.
func (s *MarkerSummary) finalize() {
	s.centroidNorms = make([]float64, len(s.VecSum))
	for i := range s.VecSum {
		s.refreshCentroid(i)
	}
}

// centroidScale is the factor that turns marker i's sum into its mean: 1
// over the count, or 1 for an empty marker (whose sum is zero).
func (s *MarkerSummary) centroidScale(i int) float64 {
	if s.Counts[i] > 0 {
		return 1 / s.Counts[i]
	}
	return 1
}

// refreshCentroid rederives marker i's centroid norm from the sums.
func (s *MarkerSummary) refreshCentroid(i int) {
	v, f := s.VecSum[i], s.centroidScale(i)
	var d float64
	for j := range v {
		c := float64(v[j] * f)
		d += c * c
	}
	s.centroidNorms[i] = math.Sqrt(d)
}

// CentroidNorm is Centroid(i).Norm() as finalize or the last owned write
// to marker i stored it.
func (s *MarkerSummary) CentroidNorm(i int) float64 { return s.centroidNorms[i] }

// CentroidDot is q.Dot(Centroid(i)) without materializing the centroid.
// The explicit conversion rounds each scaled component to float64 before
// it is multiplied, exactly as a stored Clone+Scale copy would hold it, so
// the sum carries the same bits as embedding.Vector's Dot over that copy.
func (s *MarkerSummary) CentroidDot(i int, q embedding.Vector) float64 {
	v, f := s.VecSum[i][:len(q)], s.centroidScale(i) // one bounds check, not one per j
	var d float64
	for j := range q {
		d += q[j] * float64(v[j]*f)
	}
	return d
}

// newMarkerSummary allocates an empty summary for k markers and dim-sized
// vectors.
func newMarkerSummary(k, dim int) *MarkerSummary {
	s := &MarkerSummary{
		Counts:     make([]float64, k),
		SentSum:    make([]float64, k),
		VecSum:     make([]embedding.Vector, k),
		Provenance: make([][]int, k),
	}
	for i := range s.VecSum {
		s.VecSum[i] = make(embedding.Vector, dim)
	}
	return s
}

// add records one extraction into the summary (incremental maintenance,
// §4.2.2).
func (s *MarkerSummary) add(marker int, sentiment float64, vec embedding.Vector, extractionID int) {
	s.Counts[marker]++
	s.SentSum[marker] += sentiment
	if vec != nil {
		s.VecSum[marker].Add(vec)
	}
	s.Total++
	s.Provenance[marker] = append(s.Provenance[marker], extractionID)
}

// AvgSentiment returns the mean sentiment of marker i's phrases (0 when
// empty).
func (s *MarkerSummary) AvgSentiment(i int) float64 {
	if s.Counts[i] == 0 {
		return 0
	}
	return s.SentSum[i] / s.Counts[i]
}

// Centroid returns a fresh copy of the mean embedding of marker i's
// phrases (zero vector when empty). Query processing never calls it: it
// reads CentroidDot and CentroidNorm instead.
func (s *MarkerSummary) Centroid(i int) embedding.Vector {
	out := s.VecSum[i].Clone()
	if s.Counts[i] > 0 {
		out.Scale(1 / s.Counts[i])
	}
	return out
}

// Extraction is one (aspect, opinion) pair extracted from a review and
// assigned to a subjective attribute; the base data of the subjective
// database with full provenance.
type Extraction struct {
	ID        int
	EntityID  string
	ReviewID  string
	Reviewer  string
	Day       int
	Attribute string
	Aspect    string
	// Phrase is the linguistic variation: the aspect+opinion concatenation
	// of §4.2.1 ("room very clean"), or the bare opinion term for direct
	// opinions with no aspect.
	Phrase    string
	Marker    int // marker index within the attribute
	Sentiment float64
}

// EntityData is the caller-supplied objective record of one entity.
type EntityData struct {
	ID string
	// Objective maps objective attribute name → value (string, int64,
	// float64 or bool), stored in the Entities relation.
	Objective map[string]interface{}
}

// ReviewData is one caller-supplied raw review.
type ReviewData struct {
	ID       string
	EntityID string
	Reviewer string
	Day      int
	Text     string
}

// DB is a built subjective database: the paper's three schema layers —
// (1) the user-visible schema of objective + subjective attributes,
// (2) the raw review data, (3) the extraction relation — plus the
// auxiliary models query processing needs.
type DB struct {
	Name string

	// Rel is the objective Entities relation, immutable once built; row e
	// belongs to entity EntityIDs()[e].
	Rel *relstore.Table

	// Attrs are the subjective attributes (the user-visible schema).
	Attrs      []*SubjectiveAttribute
	attrByName map[string]*SubjectiveAttribute

	// Summaries[attr][entity] is the marker summary view.
	Summaries map[string]map[string]*MarkerSummary

	// extractions holds the full rows of the extraction relation for the
	// entities this database serves, ascending by extraction id (extraction
	// resolves an id). Ids are global: ops[id] describes every extraction,
	// served or not.
	extractions []Extraction
	// opStart and ops are the review → (attribute, marker) table that
	// co-occurrence mining and idf(A) read, kept for every review whatever
	// entity it is about: ReviewIndex document d carries the extractions
	// ops[opStart[d]:opStart[d+1]], and extraction id i is ops[i], because
	// ids are assigned in document order. len(opStart) is one more than the
	// document count.
	opStart []int32
	ops     []ReviewOpinion

	// Embed is the word2vec model trained on the review corpus.
	Embed *embedding.Model

	// ReviewIndex is the BM25 index over individual reviews (the
	// co-occurrence interpreter's search space).
	ReviewIndex *ir.Index
	// EntityIndex is the BM25 index over per-entity concatenated review
	// documents (the text-retrieval fallback's search space).
	EntityIndex *ir.Index
	// ReviewSentiments maps review id → document sentiment.
	ReviewSentiments map[string]float64

	// Extractor is the trained opinion extractor (kept for incremental
	// updates and inspection).
	Extractor *extract.Extractor

	// Membership scores marker summaries against interpreted predicates.
	Membership *MembershipModel

	// entityIDs is the sorted list of entity ids.
	entityIDs []string

	// reviewsPerReviewer supports review-qualification predicates.
	reviewsPerReviewer map[string]int

	// extIndex[attr][entity] lists positions in extractions — the access
	// path of the no-marker scan membership and of review qualification.
	extIndex map[string]map[string][]int
	// reviewsWithAttrCount[attribute ordinal] counts positive-sentiment
	// reviews containing at least one extraction of the attribute (the
	// idf(A) denominator of §3.2). Positive-only because the co-occurrence
	// miner searches positive reviews; comparing against the same population
	// removes the systematic bias of positive reviews mentioning
	// positive-skewed aspects more.
	reviewsWithAttrCount []int
	// positiveReviews counts reviews with positive sentiment.
	positiveReviews int
	// reviewBoost[doc] is Eq. 3's senti(d) for ReviewIndex's internal
	// document doc (reviewBoostOf); it grows with the index, entry for
	// entry.
	reviewBoost []float64

	// Query-time caches, all sharded concurrent caches (cache.go) so
	// readers never need external locking. Interpretations are
	// deterministic for a built database, so they are computed once per
	// predicate text ("these degrees of truth, once computed, can also be
	// indexed", §3.3). domainMatches memoizes the per-attribute stage-1
	// scan where phrase texts recur — review preparation
	// (nearestDomainVariation) and membership-label resolution; the
	// interpreter scans the domain tables directly and never fills it.
	// degreeLists is keyed by AttrMarker.String().
	domainMatches shardedCache[domainMatch]
	interpCache   shardedCache[Interpretation]
	degreeLists   shardedCache[*taSource]

	cfg Config
}

// Attr returns the named subjective attribute, or nil.
func (db *DB) Attr(name string) *SubjectiveAttribute { return db.attrByName[name] }

// addAttr appends attr to the schema, numbered by its position.
func (db *DB) addAttr(attr *SubjectiveAttribute) {
	attr.ord = len(db.Attrs)
	db.Attrs = append(db.Attrs, attr)
	db.attrByName[attr.Name] = attr
}

// EntityIDs returns all entity ids in sorted order. The caller must not
// modify the returned slice.
func (db *DB) EntityIDs() []string { return db.entityIDs }

// ObjectiveValue returns the objective attribute value of an entity from
// the Entities relation.
func (db *DB) ObjectiveValue(entityID, column string) (interface{}, error) {
	e, ok := db.Rel.Find(entityID)
	if !ok {
		return nil, fmt.Errorf("core: no entity %q", entityID)
	}
	col, _, err := db.Rel.Column(column)
	if err != nil {
		return nil, err
	}
	return db.Rel.Row(e)[col], nil
}

// Summary returns the marker summary for (attribute, entity), or nil.
func (db *DB) Summary(attr, entityID string) *MarkerSummary {
	m, ok := db.Summaries[attr]
	if !ok {
		return nil
	}
	return m[entityID]
}

// ReviewerReviewCount returns how many reviews the reviewer wrote in this
// database (supports "reviewers with at least N reviews" qualification).
func (db *DB) ReviewerReviewCount(reviewer string) int {
	return db.reviewsPerReviewer[reviewer]
}

// ExtractionCount returns the number of extractions in the whole corpus,
// including those of entities this database does not serve.
func (db *DB) ExtractionCount() int { return len(db.ops) }

// extraction returns the full row of extraction id, or nil when the id is
// not one of this database's served rows.
func (db *DB) extraction(id int) *Extraction {
	i, ok := slices.BinarySearchFunc(db.extractions, id, func(e Extraction, id int) int { return cmp.Compare(e.ID, id) })
	if !ok {
		return nil
	}
	return &db.extractions[i]
}

// ProvenanceOf resolves the extraction ids supporting marker m of
// (attr, entity) into extraction records, sorted by review id; this backs
// the paper's "any result returned can be supported with evidence from
// the reviews" claim.
func (db *DB) ProvenanceOf(attr, entityID string, marker int) []Extraction {
	s := db.Summary(attr, entityID)
	if s == nil || marker < 0 || marker >= len(s.Provenance) {
		return nil
	}
	out := make([]Extraction, 0, len(s.Provenance[marker]))
	for _, id := range s.Provenance[marker] {
		out = append(out, *db.extraction(id))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ReviewID < out[j].ReviewID })
	return out
}

// ReviewOpinion is one extraction as co-occurrence mining reads it: the
// attribute's ordinal in DB.Attrs and the marker.
type ReviewOpinion struct{ Attr, Marker int32 }

// AttrMarker names one interpreted predicate target: attribute A and
// marker index m, the A.m of §3.2.
type AttrMarker struct {
	Attr   string
	Marker int
}

// String renders A.m as the paper writes it.
func (am AttrMarker) String() string {
	return am.Attr + "." + fmt.Sprint(am.Marker)
}

// fuzzyVariant is the t-norm family the config selects.
func (db *DB) fuzzyVariant() fuzzy.Variant { return db.cfg.FuzzyVariant }

// Config returns a copy of the database's configuration.
func (db *DB) Config() Config { return db.cfg }

// SetFuzzyVariant switches the t-norm used to combine degrees of truth —
// the §3.1 design choice (product vs Gödel), exposed for the ablation
// benchmarks. Affects subsequent queries only.
func (db *DB) SetFuzzyVariant(v fuzzy.Variant) { db.cfg.FuzzyVariant = v }

// SetW2VThreshold overrides θ1 (Figure 5) for interpreter ablations.
// The interpretation cache is invalidated.
func (db *DB) SetW2VThreshold(t float64) {
	db.cfg.W2VThreshold = t
	db.interpCache.reset()
}

package core

import "sort"

// WeightFn assigns an aggregation weight to one extraction. §4.2.2 leaves
// the aggregation function open as a design dimension — "an application
// might decide to assign uniform weights to all reviews but another might
// want to assign higher weights to reviews marked as helpful" — so the
// engine accepts arbitrary weightings.
type WeightFn func(*Extraction) float64

// UniformWeight is the paper's current implementation: every extracted
// phrase counts once.
func UniformWeight(*Extraction) float64 { return 1 }

// RebuildSummaries recomputes the marker summary of every served entity
// from its extraction rows under a new weighting and installs the result,
// returning the previous summaries so callers can restore them. Weights
// scale each extraction's contribution to the histogram, sentiment sums
// and centroids; provenance is unchanged (weight 0 extractions still
// trace, they just stop counting).
func (db *DB) RebuildSummaries(weight WeightFn) map[string]map[string]*MarkerSummary {
	if weight == nil {
		weight = UniformWeight
	}
	prev := db.Summaries
	next := map[string]map[string]*MarkerSummary{}
	for _, attr := range db.Attrs {
		next[attr.Name] = map[string]*MarkerSummary{}
	}
	for i := range db.extractions {
		ext := &db.extractions[i]
		attr := db.attrByName[ext.Attribute]
		if attr == nil {
			continue
		}
		byEntity := next[ext.Attribute]
		s, ok := byEntity[ext.EntityID]
		if !ok {
			s = newMarkerSummary(len(attr.Markers), db.Embed.Dim())
			byEntity[ext.EntityID] = s
		}
		w := weight(ext)
		vec := db.Embed.Rep(ext.Phrase)
		s.Counts[ext.Marker] += w
		s.SentSum[ext.Marker] += w * ext.Sentiment
		if vec != nil {
			for d := range vec {
				s.VecSum[ext.Marker][d] += w * vec[d]
			}
		}
		s.Total += w
		s.Provenance[ext.Marker] = append(s.Provenance[ext.Marker], ext.ID)
	}
	for _, byEntity := range next {
		for _, s := range byEntity {
			s.finalize()
		}
	}
	db.Summaries = next
	db.degreeLists.reset() // precomputed degrees are weighting-dependent
	return prev
}

// RestoreSummaries reinstalls summaries previously returned by
// RebuildSummaries.
func (db *DB) RestoreSummaries(summaries map[string]map[string]*MarkerSummary) {
	db.Summaries = summaries
	db.degreeLists.reset()
}

// AddReview ingests one new review; it is ApplyReview under its original
// name, kept for callers that predate the journaled delta path.
func (db *DB) AddReview(rv ReviewData) error { return db.ApplyReview(rv) }

// HasReview reports whether a review id has already been ingested (at
// build time or through ApplyReview). Journal replay uses it to stay
// idempotent when a crash leaves a delta both folded into the snapshot
// and still present in the journal.
func (db *DB) HasReview(reviewID string) bool {
	_, ok := db.ReviewSentiments[reviewID]
	return ok
}

// ServesEntity reports whether this database instance serves the entity —
// true for every known entity on a monolith, and only for the owned
// contiguous range on a shard (the Entities relation is the partitioned
// state; see ShardDB).
func (db *DB) ServesEntity(entityID string) bool {
	i := sort.SearchStrings(db.entityIDs, entityID)
	return i < len(db.entityIDs) && db.entityIDs[i] == entityID
}

// ApplyReview ingests one new review end-to-end at query-serving time:
// extraction, attribute classification via marker matching, summary
// update, index update — the incremental maintenance path of §4.2.2
// ("the marker summaries can be incrementally computed"). It is the
// single deterministic delta operation of the journaled enrichment path:
// applying the same reviews in the same order to equal databases yields
// byte-identical query state, whether the database was freshly built or
// loaded from a snapshot, so a journal replay reconstructs exactly the
// state the live writer reached.
//
// The embedding model and markers are NOT retrained — exactly like the
// production behaviour of the paper's system, where schema and models
// are rebuilt offline while summaries track new reviews online.
//
// Corpus-global state (review BM25 index, sentiment, reviewer-count and
// co-occurrence statistics, the review → opinion table) is always
// updated; the extraction rows and the per-entity marker summary are
// materialized only when this instance serves the entity (ServesEntity).
// On a shard that replicates a write for another shard's entity, the
// global update keeps interpretations byte-identical fleet-wide while the
// owner alone carries the rows and the summary — mirroring the
// replicated/partitioned split of ShardDB.
// ApplyReview is PrepareReview followed by ApplyPrepared (see
// prepare.go); concurrent write pipelines call the halves separately so
// the linguistic work runs outside the serialized fold.
func (db *DB) ApplyReview(rv ReviewData) error {
	p, err := db.PrepareReview(rv)
	if err != nil {
		return err
	}
	return db.ApplyPrepared(p)
}

// nearestDomainVariation finds the (attribute, marker) of the linguistic
// variation closest to the phrase across the whole schema.
func (db *DB) nearestDomainVariation(text string) (*SubjectiveAttribute, int, float64) {
	var bestAttr *SubjectiveAttribute
	bestMarker, bestSim := -1, -1.0
	// Exact domain membership short-circuits.
	for _, attr := range db.Attrs {
		if m, ok := attr.MarkerOf(text); ok {
			return attr, m, 1
		}
	}
	query := &phrase{text: text}
	for _, attr := range db.Attrs {
		if m := db.bestDomainMatch(attr, query); m.sim > bestSim && m.marker >= 0 {
			bestAttr, bestMarker, bestSim = attr, m.marker, m.sim
		}
	}
	return bestAttr, bestMarker, bestSim
}

// addOwned folds served row i, just appended to db.extractions, into its
// entity's live summary, maintaining the touched marker's centroid norm in
// place, and into extIndex.
func (db *DB) addOwned(attr *SubjectiveAttribute, i int) {
	ext := &db.extractions[i]
	byEntity := db.Summaries[attr.Name]
	s, ok := byEntity[ext.EntityID]
	if !ok {
		s = newMarkerSummary(len(attr.Markers), db.Embed.Dim())
		s.finalize()
		byEntity[ext.EntityID] = s
	}
	s.add(ext.Marker, ext.Sentiment, db.Embed.Rep(ext.Phrase), ext.ID)
	// Refresh the centroid norm of the touched marker only.
	if s.centroidNorms != nil {
		s.refreshCentroid(ext.Marker)
	}
	db.indexExtraction(i)
}

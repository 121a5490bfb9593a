package core

import (
	"fmt"
	"sort"
)

// WeightFn assigns an aggregation weight to one extraction. §4.2.2 leaves
// the aggregation function open as a design dimension — "an application
// might decide to assign uniform weights to all reviews but another might
// want to assign higher weights to reviews marked as helpful" — so the
// engine accepts arbitrary weightings.
type WeightFn func(*Extraction) float64

// UniformWeight is the paper's current implementation: every extracted
// phrase counts once.
func UniformWeight(*Extraction) float64 { return 1 }

// RecencyWeight builds a weighting that decays by review age:
// weight = 1 / (1 + age/halfLifeDays), where age is measured backward
// from the newest day seen. Suits fast-drifting attributes such as
// friendlyStaff (§4.2.2).
func RecencyWeight(newestDay int, halfLifeDays float64) WeightFn {
	return func(e *Extraction) float64 {
		age := float64(newestDay - e.Day)
		if age < 0 {
			age = 0
		}
		return 1 / (1 + age/halfLifeDays)
	}
}

// ProlificReviewerWeight up-weights extractions from reviewers with many
// reviews in the database (a proxy for "helpful" reviewers).
func ProlificReviewerWeight(db *DB, minReviews int, boost float64) WeightFn {
	return func(e *Extraction) float64 {
		if db.ReviewerReviewCount(e.Reviewer) >= minReviews {
			return boost
		}
		return 1
	}
}

// RebuildSummaries recomputes every marker summary under a new weighting
// and installs the result, returning the previous summaries so callers
// can restore them. Weights scale each extraction's contribution to the
// histogram, sentiment sums and centroids; provenance is unchanged
// (weight 0 extractions still trace, they just stop counting).
func (db *DB) RebuildSummaries(weight WeightFn) map[string]map[string]*MarkerSummary {
	if weight == nil {
		weight = UniformWeight
	}
	prev := db.Summaries
	next := map[string]map[string]*MarkerSummary{}
	for _, attr := range db.Attrs {
		next[attr.Name] = map[string]*MarkerSummary{}
	}
	for i := range db.Extractions {
		ext := &db.Extractions[i]
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
// Corpus-global state (the Reviews relation, review BM25 index, sentiment
// and co-occurrence statistics, the extraction relation and its access
// paths) is always updated; the per-entity marker summary is materialized
// only when this instance serves the entity (ServesEntity). On a shard
// that replicates a write for another shard's entity, the global update
// keeps interpretations byte-identical fleet-wide while the owner alone
// carries the summary — mirroring the replicated/partitioned split of
// ShardDB.
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

// addIncremental folds one new extraction into the live summary (when
// this instance serves the entity), maintaining the finalized centroids
// in place, and into the corpus-global extraction access paths (always).
func (db *DB) addIncremental(attr *SubjectiveAttribute, ext Extraction, owned bool) {
	if owned {
		byEntity := db.Summaries[attr.Name]
		s, ok := byEntity[ext.EntityID]
		if !ok {
			s = newMarkerSummary(len(attr.Markers), db.Embed.Dim())
			s.finalize()
			byEntity[ext.EntityID] = s
		}
		vec := db.Embed.Rep(ext.Phrase)
		s.add(ext.Marker, ext.Sentiment, vec, ext.ID)
		// Refresh the finalized centroid of the touched marker only.
		if s.centroids != nil {
			s.refreshCentroid(ext.Marker)
		}
	}
	db.indexExtraction(&ext)
}

// Surprise is an entity whose subjective evidence contradicts its
// objective positioning — §7's future-work example: "if there are reviews
// claiming that an expensive hotel has dirty rooms, that would be
// important to point out to the user because it contradicts their
// expectations".
type Surprise struct {
	EntityID string
	// Attribute whose evidence is unexpectedly negative.
	Attribute string
	// ExpectedRank is the entity's percentile (0..1) on the objective
	// column (1 = most expensive).
	ExpectedRank float64
	// NegativeMass is the fraction of the attribute's phrase mass at
	// negative-sentiment markers.
	NegativeMass float64
}

// Surprises scans for entities in the top objective percentile whose
// marker summaries carry a large negative mass for an attribute —
// expectation-contradicting evidence worth surfacing. objectiveCol must
// be numeric; topPct selects the high end (e.g. 0.25 = top quartile).
func (db *DB) Surprises(objectiveCol string, topPct, minNegativeMass float64) ([]Surprise, error) {
	entities, err := db.Rel.Table("Entities")
	if err != nil {
		return nil, err
	}
	type ranked struct {
		id  string
		val float64
	}
	var all []ranked
	for _, id := range db.entityIDs {
		row := entities.FirstByKey(id)
		if len(row) == 0 {
			continue
		}
		v, err := entities.Get(row, objectiveCol)
		if err != nil {
			return nil, err
		}
		var f float64
		switch x := v.(type) {
		case float64:
			f = x
		case int64:
			f = float64(x)
		default:
			return nil, fmt.Errorf("core: column %s is not numeric", objectiveCol)
		}
		all = append(all, ranked{id: id, val: f})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].val < all[j].val })
	var out []Surprise
	for pos, r := range all {
		pct := float64(pos+1) / float64(len(all))
		if pct < 1-topPct {
			continue
		}
		for _, attr := range db.Attrs {
			s := db.Summary(attr.Name, r.id)
			if s == nil || s.Total == 0 {
				continue
			}
			var neg float64
			for i, m := range attr.Markers {
				if m.Sentiment < -0.2 {
					neg += s.Counts[i]
				}
			}
			if mass := neg / s.Total; mass >= minNegativeMass {
				out = append(out, Surprise{
					EntityID:     r.id,
					Attribute:    attr.Name,
					ExpectedRank: pct,
					NegativeMass: mass,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NegativeMass != out[j].NegativeMass {
			return out[i].NegativeMass > out[j].NegativeMass
		}
		if out[i].EntityID != out[j].EntityID {
			return out[i].EntityID < out[j].EntityID
		}
		return out[i].Attribute < out[j].Attribute
	})
	return out, nil
}

package core

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/textproc"
)

// This file implements top-k evaluation of conjunctive subjective queries
// with Fagin's Threshold Algorithm (TA), which the paper names as the
// standard technique for efficient fuzzy selection ("the Threshold
// Algorithm and its descendants as the most widely used techniques", §6).
//
// The enabling structure is §3.3's observation that degrees of truth for
// in-domain predicates "can be pre-computed so that they can simply be
// looked up at query time": Build-time state lets us materialize, per
// (attribute, marker), the entity list sorted by precomputed degree.
// TA then consumes the lists with sorted + random access and stops as
// soon as the k-th best aggregate meets the threshold, touching only a
// prefix of each list instead of scoring every entity.

// entityDegree is one entry of a sorted degree list.
type entityDegree struct {
	entity string
	degree float64
}

// taSource is one predicate's access structure for TA: a sorted list plus
// a random-access degree lookup.
type taSource struct {
	list   []entityDegree
	degree map[string]float64
}

// newTASource sorts list by descending degree (entity id breaking ties)
// and indexes it for random access.
func newTASource(list []entityDegree) *taSource {
	sort.Slice(list, func(i, j int) bool {
		if list[i].degree != list[j].degree {
			return list[i].degree > list[j].degree
		}
		return list[i].entity < list[j].entity
	})
	m := make(map[string]float64, len(list))
	for _, e := range list {
		m[e.entity] = e.degree
	}
	return &taSource{list: list, degree: m}
}

// degreeList returns the (cached) TA source for an interpreted A.m: the
// entities sorted by descending precomputed degree. The precomputation
// uses the marker's own centroid as the query representation — exactly
// the "degree of truth for variations in the linguistic domain".
func (db *DB) degreeList(am AttrMarker) *taSource {
	return db.degreeLists.getOrCompute(am.String(), func() *taSource {
		attr := db.Attr(am.Attr)
		list := make([]entityDegree, 0, len(db.entityIDs))
		if attr != nil && am.Marker >= 0 && am.Marker < len(attr.Markers) {
			term := db.newMarkerTerm(attr, am.Marker, attr.Markers[am.Marker].Centroid)
			for _, id := range db.entityIDs {
				list = append(list, entityDegree{entity: id, degree: db.Membership.degree(&term, id)})
			}
		}
		return newTASource(list)
	})
}

// TopKStats reports how much work TA did.
type TopKStats struct {
	// SortedAccesses counts list positions consumed across sources.
	SortedAccesses int
	// Depth is the deepest list prefix consumed.
	Depth int
	// Candidates is the number of distinct entities aggregated.
	Candidates int
}

// TopKThreshold answers a conjunction of subjective predicates with
// Fagin's TA over precomputed degree lists, returning the top-k entities
// by product-combined degree and the access statistics.
//
// For in-domain predicates the degrees come from the per-marker
// precomputation, so the ranking can deviate slightly from the exact
// RankPredicates scores (which embed the query phrasing); the top sets
// agree closely, and the bench harness quantifies both the agreement and
// the saved work.
func (db *DB) TopKThreshold(predicates []string, k int) ([]ResultRow, TopKStats, error) {
	return db.TopKThresholdResolved(predicates, k, nil)
}

// TopKThresholdResolved is TopKThreshold over predicates the caller has
// (partly) interpreted already, under ExecuteResolved's contract.
func (db *DB) TopKThresholdResolved(predicates []string, k int, resolved map[string]Interpretation) ([]ResultRow, TopKStats, error) {
	var stats TopKStats
	if k <= 0 {
		k = 10
	}
	sources := make([]*taSource, 0, len(predicates))
	for _, text := range predicates {
		in, ok := resolved[text]
		if !ok {
			in = db.Interpret(text)
		}
		src, err := db.taSourceFor(text, in)
		if err != nil {
			return nil, stats, err
		}
		sources = append(sources, src)
	}
	if len(sources) == 0 {
		return nil, stats, nil
	}

	v := db.fuzzyVariant()
	aggregate := func(entity string) float64 {
		score := 1.0
		for _, s := range sources {
			score = v.And(score, s.degree[entity])
		}
		return score
	}

	seen := map[string]bool{}
	var top []ResultRow
	maxLen := 0
	for _, s := range sources {
		if len(s.list) > maxLen {
			maxLen = len(s.list)
		}
	}
	for depth := 0; depth < maxLen; depth++ {
		threshold := 1.0
		progressed := false
		for _, s := range sources {
			if depth >= len(s.list) {
				threshold = v.And(threshold, 0)
				continue
			}
			progressed = true
			stats.SortedAccesses++
			entry := s.list[depth]
			threshold = v.And(threshold, entry.degree)
			if !seen[entry.entity] {
				seen[entry.entity] = true
				stats.Candidates++
				if score := aggregate(entry.entity); score > 0 {
					top = insertTop(top, ResultRow{EntityID: entry.entity, Score: score}, k)
				}
			}
		}
		stats.Depth = depth + 1
		// TA stop condition, deliberately strict: stop only once the k-th
		// best aggregate EXCEEDS the threshold. The classic >= stop admits
		// a boundary ambiguity — an unseen entity whose aggregate exactly
		// equals the k-th score could be kept or dropped depending on list
		// order — which would make the result depend on how the entity
		// space is partitioned. Strict comparison guarantees every unseen
		// entity is strictly worse than the whole top-k, so a sharded
		// deployment's merged top-k is byte-identical to the monolith's.
		// Tradeoff, accepted deliberately: a persistent exact tie between
		// the k-th score and the threshold (e.g. membership degrees
		// saturating at exactly 1.0 for >= k entities) keeps TA scanning to
		// the end of the lists — worst-case O(n), the same bound as the
		// full-scan /query path — because enumerating every potential tie
		// is precisely what deployment-invariance requires.
		if !progressed || (len(top) >= k && top[k-1].Score > threshold) {
			break
		}
	}
	return top, stats, nil
}

// taSourceFor materializes the TA access structure for one interpreted
// predicate.
func (db *DB) taSourceFor(text string, in Interpretation) (*taSource, error) {
	v := db.fuzzyVariant()
	switch {
	case in.Method == MethodFallback:
		// Fallback predicates have no precomputed lists; score all
		// entities once (they rarely dominate the conjunction anyway).
		scores := db.EntityIndex.ScoreDocs(db.entityIDs, textproc.Tokenize(text))
		list := make([]entityDegree, len(scores))
		for i, id := range db.entityIDs {
			list[i] = entityDegree{entity: id, degree: ir.Sigmoid(scores[i], db.cfg.FallbackCenter)}
		}
		return newTASource(list), nil
	case len(in.Terms) == 1:
		return db.degreeList(in.Terms[0]), nil
	default:
		// Multi-term interpretation: merge the per-term lists under the
		// interpretation's connective.
		merged := map[string]float64{}
		for ti, term := range in.Terms {
			for _, e := range db.degreeList(term).list {
				if ti == 0 {
					merged[e.entity] = e.degree
				} else if in.Disjunction {
					merged[e.entity] = v.Or(merged[e.entity], e.degree)
				} else {
					merged[e.entity] = v.And(merged[e.entity], e.degree)
				}
			}
		}
		list := make([]entityDegree, 0, len(merged))
		for id, d := range merged {
			list = append(list, entityDegree{entity: id, degree: d})
		}
		return newTASource(list), nil
	}
}

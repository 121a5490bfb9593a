package core

import (
	"math"
	"math/rand"

	"repro/internal/classify"
	"repro/internal/embedding"
)

// MembershipLabel is one labeled tuple (S_i, p_i, y_i) of §3.3: does the
// marker summary of (Entity, Attribute) satisfy the phrase?
type MembershipLabel struct {
	EntityID  string
	Attribute string
	Phrase    string
	Y         bool
}

// MembershipModel turns marker summaries into degrees of truth. It holds
// two scoring paths:
//
//   - the marker path ("10-mkrs" in Table 7): features precomputed in the
//     marker summary, scored by logistic regression whose probability
//     output is the degree of truth;
//   - the scan path ("no-mkrs"): per-query features computed by scanning
//     the raw extracted phrases of the entity, as the ablation baseline.
//
// When no training labels are supplied both paths fall back to calibrated
// heuristics with the same feature semantics.
type MembershipModel struct {
	markerLR *classify.LogReg
	scanLR   *classify.LogReg
	// MarkerAccuracy / ScanAccuracy are the held-out accuracies reported
	// in Table 7 (0 when heuristics are in use).
	MarkerAccuracy float64
	ScanAccuracy   float64
}

// markerFeatureCount and scanFeatureCount fix the feature vector sizes.
const (
	markerFeatureCount = 6
	scanFeatureCount   = 5
)

// newMembershipModel trains LR membership functions when labels are
// available (holding out 20% for the accuracy figures) or installs
// heuristics otherwise.
func newMembershipModel(db *DB, labels []MembershipLabel, rng *rand.Rand) *MembershipModel {
	mm := &MembershipModel{}
	if len(labels) < 20 {
		return mm
	}
	var markerEx, scanEx []classify.Example
	for _, l := range labels {
		attr := db.Attr(l.Attribute)
		if attr == nil {
			continue
		}
		query := &phrase{text: l.Phrase}
		mi := db.bestDomainMatch(attr, query).marker
		y := 0
		if l.Y {
			y = 1
		}
		qRep := query.repIn(db.Embed)
		term := db.newMarkerTerm(attr, mi, qRep)
		mf := term.features(term.summaries[l.EntityID])
		markerEx = append(markerEx, classify.Example{Features: mf[:], Label: y})
		sf, _ := scanFeatures(db, attr, l.EntityID, qRep, nil)
		scanEx = append(scanEx, classify.Example{Features: sf, Label: y})
	}
	if len(markerEx) < 20 {
		return mm
	}
	// Shuffle and split 80/20.
	perm := rng.Perm(len(markerEx))
	cut := len(markerEx) * 8 / 10
	trainM := make([]classify.Example, 0, cut)
	testM := make([]classify.Example, 0, len(markerEx)-cut)
	trainS := make([]classify.Example, 0, cut)
	testS := make([]classify.Example, 0, len(scanEx)-cut)
	for i, pi := range perm {
		if i < cut {
			trainM = append(trainM, markerEx[pi])
			trainS = append(trainS, scanEx[pi])
		} else {
			testM = append(testM, markerEx[pi])
			testS = append(testS, scanEx[pi])
		}
	}
	cfg := classify.DefaultLogRegConfig()
	if m, err := classify.TrainLogReg(trainM, cfg, rng); err == nil {
		mm.markerLR = m
		mm.MarkerAccuracy = m.Accuracy(testM)
	}
	if m, err := classify.TrainLogReg(trainS, cfg, rng); err == nil {
		mm.scanLR = m
		mm.ScanAccuracy = m.Accuracy(testS)
	}
	return mm
}

// markerTerm is one interpreted A.m readied for scoring: everything the
// marker path needs that does not depend on the entity, worked out once per
// query (or per degree list) instead of once per entity. It is the single
// home of the §3.3 marker features — queries, TA degree lists, DegreeMarker
// and membership training all score through it.
type markerTerm struct {
	attr      *SubjectiveAttribute
	summaries map[string]*MarkerSummary // the attribute's, by entity
	marker    int                       // -1 when out of range: every feature stays 0
	weights   []markerWeight            // per marker of the attribute
	q         embedding.Vector          // query representation, may be nil
	qNorm     float64                   // q.Norm(), taken once
	pow       float64                   // AttributeWeights exponent; 0 = none
}

// markerWeight is what marker i contributes to a term targeting marker m.
type markerWeight struct {
	// near is i's share of the mass feature: linear attributes credit
	// adjacent markers with decayed weight, categorical only m itself.
	near float64
	// aligned: i's sentiment is within 0.25 of m's.
	aligned bool
}

func (db *DB) newMarkerTerm(attr *SubjectiveAttribute, marker int, q embedding.Vector) markerTerm {
	t := markerTerm{attr: attr, summaries: db.Summaries[attr.Name], marker: -1, q: q, qNorm: q.Norm()}
	if marker < 0 || marker >= len(attr.Markers) {
		return t
	}
	t.marker = marker
	t.weights = make([]markerWeight, len(attr.Markers))
	for i := range attr.Markers {
		w := &t.weights[i]
		if attr.Categorical {
			if i == marker {
				w.near = 1
			}
		} else {
			w.near = math.Max(0, 1-math.Abs(float64(i-marker))/2.5)
		}
		w.aligned = math.Abs(attr.Markers[i].Sentiment-attr.Markers[marker].Sentiment) <= 0.25
	}
	return t
}

// features returns the fast-path feature vector of summary s: mass
// near the target marker, support size, overall sentiment, target marker
// sentiment, sentiment-mass alignment, and centroid similarity.
//
// Float order is part of the contract (answers are compared bit for bit
// across shards, replicas and releases): every sum runs over the markers in
// index order with one accumulator, and the cosine is dot/(|q|·|c|) with
// embedding.Vector's own Dot and Norm.
func (t *markerTerm) features(s *MarkerSummary) (f [markerFeatureCount]float64) {
	if s == nil || s.Total == 0 || t.marker < 0 {
		return f
	}
	var mass, sentSum, aligned float64
	for i, w := range t.weights {
		mass += w.near * s.Counts[i]
		sentSum += s.SentSum[i]
		if w.aligned {
			aligned += s.Counts[i]
		}
	}
	f[0] = mass / s.Total
	// f1: support (log-scaled total phrase count).
	f[1] = math.Log1p(s.Total) / 6
	f[2] = sentSum / s.Total
	// f3: is the user asking for the good end of the scale?
	f[3] = t.attr.Markers[t.marker].Sentiment
	f[4] = aligned / s.Total
	// f5: cosine between the query phrase and the entity's phrase centroid
	// at the target marker; 0 if either is a zero vector. Every summary the
	// engine serves is finalized, so |c| is the stored c.Norm(), not a dot
	// per entity.
	if t.qNorm != 0 {
		if cNorm := s.centroidNorms[t.marker]; cNorm != 0 {
			f[5] = t.q.Dot(s.centroids[t.marker]) / (t.qNorm * cNorm)
		}
	}
	return f
}

// degree is the term's degree of truth for one entity from its marker
// summary alone (the fast path accelerated by precomputation, §3.3).
func (mm *MembershipModel) degree(t *markerTerm, entityID string) float64 {
	s := t.summaries[entityID]
	if s == nil || s.Total == 0 {
		return 0 // no evidence at all: definitively false, not model bias
	}
	f := t.features(s)
	if mm.markerLR != nil {
		return mm.markerLR.Prob(f[:])
	}
	return heuristicFromMarkerFeatures(f[:])
}

// DegreeMarker computes the degree of truth of interpreted predicate
// attr.marker for an entity using only the marker summary.
func (mm *MembershipModel) DegreeMarker(db *DB, entityID string, attr *SubjectiveAttribute, marker int, queryRep embedding.Vector) float64 {
	t := db.newMarkerTerm(attr, marker, queryRep)
	return mm.degree(&t, entityID)
}

// DegreeScan computes the same degree by scanning the entity's raw
// extracted phrases (the no-marker ablation of Table 7). filter, when
// non-nil, restricts which extractions count (review qualification).
func (mm *MembershipModel) DegreeScan(db *DB, entityID string, attr *SubjectiveAttribute, queryRep embedding.Vector, filter func(*Extraction) bool) float64 {
	feats, n := scanFeatures(db, attr, entityID, queryRep, filter)
	if n == 0 {
		return 0 // nothing survives the filter: definitively false
	}
	if mm.scanLR != nil {
		return mm.scanLR.Prob(feats)
	}
	return heuristicFromScanFeatures(feats)
}

// scanFeatures builds the slow-path features by walking the entity's raw
// extractions for the attribute: similarity-weighted support, hit
// fraction, sentiment of similar phrases, support size, and overall
// sentiment. This deliberately does per-phrase vector math — the work the
// marker summary precomputes away (Table 7's speedup).
func scanFeatures(db *DB, attr *SubjectiveAttribute, entityID string, queryRep embedding.Vector, filter func(*Extraction) bool) (feats []float64, support int) {
	feats = make([]float64, scanFeatureCount)
	ids := db.extractionsFor(attr.Name, entityID)
	if len(ids) == 0 {
		return feats, 0
	}
	var n, simSum, hits, sentiSimilar, sentiAll float64
	for _, id := range ids {
		ext := &db.Extractions[id]
		if filter != nil && !filter(ext) {
			continue
		}
		n++
		sentiAll += ext.Sentiment
		sim := 0.0
		if queryRep != nil {
			sim = embedding.Cosine(queryRep, db.Embed.Rep(ext.Phrase))
		}
		if sim > 0 {
			simSum += sim
		}
		if sim >= 0.55 {
			hits++
			sentiSimilar += ext.Sentiment
		}
	}
	if n == 0 {
		return feats, 0
	}
	feats[0] = simSum / n
	feats[1] = hits / n
	if hits > 0 {
		feats[2] = sentiSimilar / hits
	}
	feats[3] = math.Log1p(n) / 6
	feats[4] = sentiAll / n
	return feats, int(n)
}

// heuristicFromMarkerFeatures is the untrained fast-path membership: mass
// near the marker, shrunk toward 0 for thin support, nudged by sentiment
// alignment. Matches the paper's example calibration (a summary dominated
// by the queried marker ≈ 0.95; an evenly split one ≈ 0.2–0.5).
func heuristicFromMarkerFeatures(f []float64) float64 {
	mass, support, align := f[0], f[1], f[4]
	score := 0.75*mass + 0.25*align
	conf := 1 - math.Exp(-support*4)
	return clamp01(score * conf)
}

// heuristicFromScanFeatures mirrors the scan-path heuristic.
func heuristicFromScanFeatures(f []float64) float64 {
	hitFrac, senti, support := f[1], f[2], f[3]
	score := 0.7*hitFrac + 0.3*clamp01(0.5+senti/2)
	if hitFrac == 0 {
		score = 0.2 * clamp01(0.5+f[4]/2)
	}
	conf := 1 - math.Exp(-support*4)
	return clamp01(score * conf)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Package corpus generates the synthetic review corpora that stand in for
// the paper's Booking.com (515k hotel reviews) and Yelp (176k restaurant
// reviews) datasets, which are not redistributable here.
//
// The generator preserves the phenomena every OpineDB experiment depends
// on:
//
//   - Latent ground truth: every entity has a hidden quality θ ∈ [0,1] per
//     subjective aspect; review phrases are sampled from per-level phrase
//     banks conditioned on θ. This replaces the paper's manual sat(q,e)
//     labeling with exact labels.
//   - Linguistic variation: each (aspect, level) has many phrasings, so the
//     word2vec interpreter has real work to do.
//   - Negated positives: low-quality levels include phrases built from
//     positive words ("not clean at all", "far from quiet") which defeat
//     keyword search — the paper's qualitative argument for why OpineDB
//     beats the IR baseline (Appendix D).
//   - Composite concepts: phrases like "romantic getaway" are injected
//     only into reviews of entities whose *proxy aspects* are strong
//     (exceptional service + luxurious bathrooms), giving the
//     co-occurrence interpreter its signal.
//   - Out-of-schema aspects: rare boolean amenities ("motorcycle parking",
//     "towel art") appear only in raw text, exercising the IR fallback.
package corpus

import (
	"fmt"
	"math/rand"
)

// LevelSpec is one point on an aspect's quality scale: a marker-like name
// and the bank of opinion phrases expressing that level.
type LevelSpec struct {
	Name    string
	Phrases []string
}

// AspectSpec describes one subjective attribute of a domain.
type AspectSpec struct {
	// Name is the subjective attribute name, e.g. "room_cleanliness".
	Name string
	// AspectTerms are the nouns reviews use for this aspect ("room",
	// "carpet"); also the designer's E seed set.
	AspectTerms []string
	// Categorical marks non-linear domains (e.g. bathroom style); for
	// categorical aspects Levels are categories, not a scale.
	Categorical bool
	// Levels are ordered worst→best for linear aspects.
	Levels []LevelSpec
	// MentionProb is the chance a review discusses this aspect.
	MentionProb float64
}

// LevelFor maps a latent quality θ ∈ [0,1] to a level index with gaussian
// reviewer noise: individual reviewers disagree, the aggregate reflects θ.
func (a *AspectSpec) LevelFor(theta float64, rng *rand.Rand) int {
	n := len(a.Levels)
	if n == 1 {
		return 0
	}
	x := theta*float64(n-1) + rng.NormFloat64()*0.55
	i := int(x + 0.5)
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// CompositeSpec is a concept expressible only as a combination of aspects
// ("romantic getaway" ⇐ exceptional service ∧ luxurious bathroom). The
// generator mentions the concept's phrases in reviews of entities whose
// proxy thresholds hold, creating the co-occurrence signal of §3.2.
type CompositeSpec struct {
	Name string
	// Proxies maps aspect name → minimum latent quality for the concept to
	// apply. For categorical aspects the threshold is on the category
	// match (see CatProxies).
	Proxies map[string]float64
	// CatProxies maps categorical aspect name → required category.
	CatProxies map[string]string
	// Phrases are how reviews mention the concept.
	Phrases []string
	// MentionProb is the chance a qualifying entity's review mentions it.
	MentionProb float64
}

// Applies reports whether the composite concept holds for latent data.
func (c *CompositeSpec) Applies(latent map[string]float64, latentCat map[string]string) bool {
	for a, min := range c.Proxies {
		if latent[a] < min {
			return false
		}
	}
	for a, cat := range c.CatProxies {
		if latentCat[a] != cat {
			return false
		}
	}
	return true
}

// FlagSpec is an out-of-schema boolean amenity that only ever appears in
// raw review text ("good for motorcyclists"), never in the schema.
type FlagSpec struct {
	Name        string
	Phrases     []string
	Prevalence  float64 // fraction of entities with the flag
	MentionProb float64 // chance a flagged entity's review mentions it
}

// Entity is one hotel or restaurant with its latent ground truth.
type Entity struct {
	ID   string
	Name string
	City string

	// Hotel objective attributes.
	PricePerNight float64
	Capacity      int

	// Restaurant objective attributes.
	PriceRange int // 1..4 '$' signs
	Cuisine    string

	// Latent ground truth.
	Latent    map[string]float64 // linear aspect → θ
	LatentCat map[string]string  // categorical aspect → dominant category
	Flags     map[string]bool    // out-of-schema amenities

	// PlatformRatings simulates the aggregate scores scraped from
	// booking.com/yelp that the attribute-based baselines rank by
	// (noisy functions of the latent quality).
	PlatformRatings map[string]float64
	// CategoricalAttrs simulates yelp's filterable attributes
	// (NoiseLevel, GoodForGroups, ...).
	CategoricalAttrs map[string]string
	// Stars is the platform's overall star rating.
	Stars float64
	// ReviewCount is maintained by the generator.
	ReviewCount int
}

// Review is one generated review.
type Review struct {
	ID       string
	EntityID string
	Reviewer string
	// Day is days since an arbitrary epoch; supports date-qualified queries.
	Day  int
	Text string
}

// Dataset is everything the experiments need for one domain.
type Dataset struct {
	Domain     string
	Entities   []*Entity
	Reviews    []*Review
	Aspects    []AspectSpec
	Composites []CompositeSpec
	OOSFlags   []FlagSpec
	Predicates []Predicate
}

// EntityByID returns the entity with the given id, or nil.
func (d *Dataset) EntityByID(id string) *Entity {
	for _, e := range d.Entities {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// Aspect returns the named aspect spec, or nil.
func (d *Dataset) Aspect(name string) *AspectSpec {
	for i := range d.Aspects {
		if d.Aspects[i].Name == name {
			return &d.Aspects[i]
		}
	}
	return nil
}

// PredicateKind classifies query predicates by which interpreter stage
// should resolve them.
type PredicateKind int

const (
	// KindMarker predicates name a marker-like phrase directly
	// ("has firm beds").
	KindMarker PredicateKind = iota
	// KindParaphrase predicates use in-domain linguistic variation
	// ("meticulously clean rooms").
	KindParaphrase
	// KindComposite predicates need the co-occurrence method
	// ("is a romantic getaway").
	KindComposite
	// KindOutOfSchema predicates need the IR fallback
	// ("good for motorcyclists").
	KindOutOfSchema
)

// String names the kind.
func (k PredicateKind) String() string {
	switch k {
	case KindMarker:
		return "marker"
	case KindParaphrase:
		return "paraphrase"
	case KindComposite:
		return "composite"
	case KindOutOfSchema:
		return "out-of-schema"
	default:
		return fmt.Sprintf("PredicateKind(%d)", int(k))
	}
}

// Predicate is one subjective query predicate with its ground truth.
type Predicate struct {
	Text string
	Kind PredicateKind
	// GoldAttribute is the schema attribute the predicate should map to
	// (the Table 8 label); empty for out-of-schema predicates.
	GoldAttribute string
	// WantCategory, for predicates over categorical aspects, names the
	// category the user wants; otherwise empty and MinQuality applies.
	WantCategory string
	// MinQuality is the latent threshold defining ground-truth
	// satisfaction for linear aspects.
	MinQuality float64
	// CompositeOf lists the proxy thresholds for composite predicates.
	CompositeOf map[string]float64
	// CompositeCat lists categorical proxies for composite predicates.
	CompositeCat map[string]string
	// Flag names the out-of-schema amenity for KindOutOfSchema.
	Flag string
}

// Satisfied reports the ground-truth sat(q, e) of §5.2.3, computed from
// the entity's latent state rather than by human labeling.
func (p *Predicate) Satisfied(e *Entity) bool {
	switch p.Kind {
	case KindOutOfSchema:
		return e.Flags[p.Flag]
	case KindComposite:
		for a, min := range p.CompositeOf {
			if e.Latent[a] < min {
				return false
			}
		}
		for a, cat := range p.CompositeCat {
			if e.LatentCat[a] != cat {
				return false
			}
		}
		return true
	default:
		if p.WantCategory != "" {
			return e.LatentCat[p.GoldAttribute] == p.WantCategory
		}
		return e.Latent[p.GoldAttribute] >= p.MinQuality
	}
}

// Package harness wires the synthetic corpora into OpineDB builds and
// implements the experiment runners that regenerate every table and
// figure of the paper's evaluation (§5). cmd/benchall and the root
// bench_test.go are thin wrappers over this package.
package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
)

// BuildInputFromDataset assembles the construction input for a dataset:
// objective entity records, raw reviews, the designer's attribute specs
// with seeds, taggedN gold sentences for the extractor, and labelsN
// membership labels derived from latent ground truth (standing in for the
// paper's 1,000 hand-labeled tuples).
func BuildInputFromDataset(d *corpus.Dataset, taggedN, labelsN int, rng *rand.Rand) core.BuildInput {
	in := core.BuildInput{Name: d.Domain}
	for _, e := range d.Entities {
		obj := map[string]interface{}{
			"name": e.Name,
			"city": e.City,
		}
		if d.Domain == "hotel" {
			obj["price_pn"] = e.PricePerNight
			obj["capacity"] = int64(e.Capacity)
		} else {
			obj["price_range"] = int64(e.PriceRange)
			obj["cuisine"] = e.Cuisine
			obj["stars"] = e.Stars
		}
		in.Entities = append(in.Entities, core.EntityData{ID: e.ID, Objective: obj})
	}
	for _, rv := range d.Reviews {
		in.Reviews = append(in.Reviews, core.ReviewData{
			ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer,
			Day: rv.Day, Text: rv.Text,
		})
	}
	seeds := d.Seeds()
	for i, a := range d.Aspects {
		in.Attributes = append(in.Attributes, core.AttrSpec{
			Name:        a.Name,
			Categorical: a.Categorical,
			Seeds:       seeds[i],
		})
	}
	in.TaggedTraining = d.TaggedSentences(taggedN, rng)
	in.MembershipLabels = MembershipLabels(d, labelsN, rng)
	return in
}

// MembershipLabels samples labeled (entity, attribute, phrase) tuples from
// the latent ground truth: the phrase is a bank predicate over a schema
// attribute, the label is whether the entity's latent quality clears the
// predicate's threshold.
func MembershipLabels(d *corpus.Dataset, n int, rng *rand.Rand) []core.MembershipLabel {
	var inSchema []corpus.Predicate
	for _, p := range d.Predicates {
		if p.Kind == corpus.KindMarker || p.Kind == corpus.KindParaphrase {
			inSchema = append(inSchema, p)
		}
	}
	if len(inSchema) == 0 || len(d.Entities) == 0 {
		return nil
	}
	out := make([]core.MembershipLabel, 0, n)
	for i := 0; i < n; i++ {
		p := inSchema[rng.Intn(len(inSchema))]
		e := d.Entities[rng.Intn(len(d.Entities))]
		out = append(out, core.MembershipLabel{
			EntityID:  e.ID,
			Attribute: p.GoldAttribute,
			Phrase:    p.Text,
			Y:         p.Satisfied(e),
		})
	}
	return out
}

// BuildDB generates a dataset's database with the given config.
func BuildDB(d *corpus.Dataset, cfg core.Config, taggedN, labelsN int) (*core.DB, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	in := BuildInputFromDataset(d, taggedN, labelsN, rng)
	return core.Build(in, cfg)
}

// BuildDomain generates the named domain's corpus and builds its database
// with the serving defaults (core.DefaultConfig with the given seed and
// worker count). cmd/opinedbb and the smokes that start from a builder's
// corpus call it; a serving node never builds, it loads the snapshot
// opinedbb wrote from this database.
func BuildDomain(domain string, small bool, seed int64, workers, taggedN, labelsN int) (*corpus.Dataset, *core.DB, error) {
	genCfg := corpus.DefaultConfig()
	if small {
		genCfg = corpus.SmallConfig()
	}
	genCfg.Seed = seed
	var d *corpus.Dataset
	switch domain {
	case "hotel":
		d = corpus.GenerateHotels(genCfg)
	case "restaurant":
		d = corpus.GenerateRestaurants(genCfg)
	default:
		return nil, nil, fmt.Errorf("harness: unknown domain %q (want hotel or restaurant)", domain)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.BuildWorkers = workers
	db, err := BuildDB(d, cfg, taggedN, labelsN)
	if err != nil {
		return nil, nil, err
	}
	return d, db, nil
}

// Setting is one objective-filter query setting of Table 4/5.
type Setting struct {
	Name   string
	Domain string // "hotel" or "restaurant"
	Filter func(*corpus.Entity) bool
}

// Settings returns the four settings of the evaluation.
func Settings() []Setting {
	return []Setting{
		{
			Name: "London,<$300", Domain: "hotel",
			Filter: func(e *corpus.Entity) bool { return e.City == "london" && e.PricePerNight < 300 },
		},
		{
			Name: "Amsterdam", Domain: "hotel",
			Filter: func(e *corpus.Entity) bool { return e.City == "amsterdam" },
		},
		{
			Name: "Low Price", Domain: "restaurant",
			Filter: func(e *corpus.Entity) bool { return e.PriceRange == 1 },
		},
		{
			Name: "JP Cuisine", Domain: "restaurant",
			Filter: func(e *corpus.Entity) bool { return e.Cuisine == "japanese" },
		},
	}
}

// Candidates returns the entity-id set passing a setting's filter.
func Candidates(d *corpus.Dataset, s Setting) map[string]bool {
	out := map[string]bool{}
	for _, e := range d.Entities {
		if s.Filter(e) {
			out[e.ID] = true
		}
	}
	return out
}

// QuerySet is one generated workload: conjunctions of subjective
// predicates.
type QuerySet struct {
	// Difficulty is "easy" (2 conjuncts), "medium" (4) or "hard" (7).
	Difficulty string
	// Queries[i] is one conjunction (indices into the dataset's bank).
	Queries [][]int
}

// Difficulties maps names to conjunct counts (§5.2.2).
var Difficulties = []struct {
	Name      string
	Conjuncts int
}{
	{"easy", 2}, {"medium", 4}, {"hard", 7},
}

// SampleQueries draws n random conjunctions of the given size from the
// predicate bank by uniform sampling without replacement within a query.
func SampleQueries(bank []corpus.Predicate, n, conjuncts int, rng *rand.Rand) [][]int {
	out := make([][]int, 0, n)
	for i := 0; i < n; i++ {
		perm := rng.Perm(len(bank))
		q := make([]int, 0, conjuncts)
		for _, idx := range perm {
			// Exclude out-of-schema predicates from sampled workloads, as
			// the paper's collected predicates target schema aspects.
			if bank[idx].Kind == corpus.KindOutOfSchema {
				continue
			}
			q = append(q, idx)
			if len(q) == conjuncts {
				break
			}
		}
		out = append(out, q)
	}
	return out
}

// QueryQuality evaluates one ranking against ground truth: the §5.2.3
// sat(Q,E)/sat-max(Q) ratio.
func QueryQuality(d *corpus.Dataset, predIdx []int, ranking []string, candidates map[string]bool, k int) float64 {
	satFn := func(pi int, entityID string) bool {
		e := d.EntityByID(entityID)
		if e == nil {
			return false
		}
		return d.Predicates[predIdx[pi]].Satisfied(e)
	}
	var cands []string
	for id := range candidates {
		cands = append(cands, id)
	}
	if len(ranking) > k {
		ranking = ranking[:k]
	}
	s := eval.Sat(len(predIdx), ranking, satFn)
	m := eval.SatMax(len(predIdx), cands, k, satFn)
	if m <= 0 {
		return -1 // signal: skip this query
	}
	q := s / m
	if q > 1 {
		q = 1
	}
	return q
}

// PredTexts resolves predicate indices to their texts.
func PredTexts(d *corpus.Dataset, idx []int) []string {
	out := make([]string, len(idx))
	for i, pi := range idx {
		out[i] = d.Predicates[pi].Text
	}
	return out
}

package core_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// Property: interpretation is deterministic and cached — repeated calls
// return identical results.
func TestInterpretDeterministic(t *testing.T) {
	d, db := testDB(t)
	for i, p := range d.Predicates {
		if i >= 25 {
			break
		}
		a := db.Interpret(p.Text)
		b := db.Interpret(p.Text)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("interpretation of %q unstable", p.Text)
		}
	}
}

// Property: every degree of truth is in [0, 1] for arbitrary predicate /
// entity combinations, on both membership paths.
func TestDegreesAlwaysInUnitInterval(t *testing.T) {
	d, db := testDB(t)
	ids := db.EntityIDs()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		p := d.Predicates[rng.Intn(len(d.Predicates))]
		for _, useMarkers := range []bool{true, false} {
			opts := core.DefaultQueryOptions()
			opts.UseMarkers = useMarkers
			opts.TopK = 0
			qr, err := db.RankPredicates([]string{p.Text}, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range qr.Rows {
				if row.Score < 0 || row.Score > 1 {
					t.Fatalf("score %v out of range for %q", row.Score, p.Text)
				}
			}
		}
	}
	_ = ids
}

// Property: adding a conjunct can only lower (or keep) an entity's score
// under the product t-norm.
func TestConjunctionMonotone(t *testing.T) {
	_, db := testDB(t)
	opts := core.DefaultQueryOptions()
	opts.TopK = 0
	one, err := db.RankPredicates([]string{"has really clean rooms"}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	two, err := db.RankPredicates([]string{"has really clean rooms", "has friendly staff"}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	oneScore := map[string]float64{}
	for _, r := range one.Rows {
		oneScore[r.EntityID] = r.Score
	}
	for _, r := range two.Rows {
		if s, ok := oneScore[r.EntityID]; ok && r.Score > s+1e-9 {
			t.Fatalf("adding a conjunct raised %s: %v > %v", r.EntityID, r.Score, s)
		}
	}
}

// Property: marker summaries preserve count mass — for every (attribute,
// entity), Σ counts == total and provenance size == counts (uniform
// weights).
func TestSummaryMassInvariant(t *testing.T) {
	_, db := testDB(t)
	for attrName, byEntity := range db.Summaries {
		for entity, s := range byEntity {
			var sum float64
			var prov int
			for i := range s.Counts {
				sum += s.Counts[i]
				prov += len(s.Provenance[i])
			}
			if sum != s.Total {
				t.Fatalf("%s/%s: counts sum %v != total %v", attrName, entity, sum, s.Total)
			}
			if float64(prov) != s.Total {
				t.Fatalf("%s/%s: provenance %d != total %v", attrName, entity, prov, s.Total)
			}
		}
	}
}

// Property: every extraction's marker index is valid for its attribute
// and its phrase is in the attribute's linguistic domain.
func TestExtractionReferentialIntegrity(t *testing.T) {
	_, db := testDB(t)
	for _, ext := range db.State().Extractions {
		attr := db.Attr(ext.Attribute)
		if attr == nil {
			t.Fatalf("extraction %d references unknown attribute %q", ext.ID, ext.Attribute)
		}
		if ext.Marker < 0 || ext.Marker >= len(attr.Markers) {
			t.Fatalf("extraction %d marker %d out of range", ext.ID, ext.Marker)
		}
		// Build-time extractions carry domain phrases whose marker must
		// agree; incrementally added ones (AddReview) may introduce new
		// phrases classified by nearest variation, which only need a
		// valid marker (checked above).
		if m, ok := attr.MarkerOf(ext.Phrase); ok && m != ext.Marker {
			t.Fatalf("extraction %d phrase %q marker mismatch: %d vs %d",
				ext.ID, ext.Phrase, ext.Marker, m)
		}
		if ext.Sentiment < -1 || ext.Sentiment > 1 {
			t.Fatalf("extraction %d sentiment %v out of range", ext.ID, ext.Sentiment)
		}
	}
}

// Property: QueryOptions.TopK and SQL LIMIT interact correctly.
func TestLimitSemantics(t *testing.T) {
	_, db := testDB(t)
	opts := core.DefaultQueryOptions()
	opts.TopK = 7
	noLimit, err := db.QueryWithOptions(`select * from Hotels where "has friendly staff"`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(noLimit.Rows) > 7 {
		t.Errorf("TopK default not applied: %d rows", len(noLimit.Rows))
	}
	withLimit, err := db.QueryWithOptions(`select * from Hotels where "has friendly staff" limit 3`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(withLimit.Rows) > 3 {
		t.Errorf("explicit LIMIT not honored: %d rows", len(withLimit.Rows))
	}
}

// quick.Check-style sanity for AttrMarker rendering.
func TestAttrMarkerString(t *testing.T) {
	f := func(marker uint8) bool {
		am := core.AttrMarker{Attr: "service", Marker: int(marker)}
		return len(am.String()) > len("service.")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package core_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestExplainTopResult(t *testing.T) {
	_, db := testDB(t)
	res, err := db.Query(`select * from Hotels where "has really clean rooms" and "has friendly staff" limit 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	top := res.Rows[0].EntityID
	ex := db.Explain(res, top)
	if ex.EntityID != top || ex.Score != res.Rows[0].Score {
		t.Errorf("identity mismatch: %+v", ex)
	}
	if len(ex.Predicates) != 2 {
		t.Fatalf("explained %d predicates, want 2", len(ex.Predicates))
	}
	evidenced := 0
	for _, pe := range ex.Predicates {
		if pe.Degree < 0 || pe.Degree > 1 {
			t.Errorf("degree %v out of range", pe.Degree)
		}
		if pe.Interpretation == "" {
			t.Error("missing interpretation text")
		}
		if len(pe.Evidence) > 0 {
			evidenced++
			for _, ev := range pe.Evidence {
				if ev.Phrase == "" || ev.ReviewID == "" {
					t.Errorf("malformed evidence: %+v", ev)
				}
			}
		}
	}
	if evidenced == 0 {
		t.Error("no predicate produced review evidence for the top result")
	}
	s := ex.String()
	if !strings.Contains(s, top) || !strings.Contains(s, "degree") {
		t.Errorf("rendered explanation malformed:\n%s", s)
	}
}

func TestExplainUnknownEntity(t *testing.T) {
	_, db := testDB(t)
	res, err := db.Query(`select * from Hotels where "has friendly staff" limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	ex := db.Explain(res, "not-an-entity")
	if ex.Score != 0 || len(ex.Predicates) != 0 {
		t.Errorf("unknown entity should yield an empty explanation: %+v", ex)
	}
}

func TestExplainFallbackPredicate(t *testing.T) {
	_, db := testDB(t)
	res, err := db.Query(`select * from Hotels where "good for motorcyclists" limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Skip("no fallback results at this draw")
	}
	ex := db.Explain(res, res.Rows[0].EntityID)
	if len(ex.Predicates) != 1 {
		t.Fatalf("predicates = %d", len(ex.Predicates))
	}
	s := ex.String()
	if ex.Predicates[0].Method == "fallback" && !strings.Contains(s, "raw-text retrieval") {
		t.Errorf("fallback note missing:\n%s", s)
	}
}

// TestExplainNamesTheInterpreterStage: over predicates that reach each
// Figure 5 stage, the explanation carries the stage, rendering and degree
// the query ran under, and the chosen interpretation is the stage's own
// ungated answer (what the retired log-only diagnostics printed side by
// side).
func TestExplainNamesTheInterpreterStage(t *testing.T) {
	_, db := testDB(t)
	stages := map[core.Method]int{}
	for _, pred := range []string{
		"has really clean rooms", "spotless rooms", "has firm beds", "has luxurious bathrooms",
		"is a romantic getaway", "kid friendly hotel", "good for motorcyclists", "has great towel art", "quiet room",
	} {
		res, err := db.Query(`select * from Hotels where "` + pred + `" limit 3`)
		if err != nil {
			t.Fatal(err)
		}
		in := db.Interpret(pred)
		stages[in.Method]++
		switch in.Method {
		case core.MethodW2V:
			if w := db.InterpretW2VOnly(pred); !reflect.DeepEqual(w.Terms, in.Terms) || w.Similarity != in.Similarity {
				t.Errorf("%q: chosen %+v, but stage 1 alone answers %+v", pred, in, w)
			}
		case core.MethodCooccur:
			if c := db.InterpretCooccurOnly(pred); !reflect.DeepEqual(c.Terms, in.Terms) {
				t.Errorf("%q: chosen %+v, but stage 2 alone answers %+v", pred, in, c)
			}
		}
		for _, row := range res.Rows {
			ex := db.Explain(res, row.EntityID)
			if len(ex.Predicates) != 1 {
				t.Fatalf("%q: explained %d predicates", pred, len(ex.Predicates))
			}
			pe := ex.Predicates[0]
			if pe.Predicate != pred || pe.Method != in.Method || pe.Interpretation != in.String() || pe.Degree != row.PredicateScores[pred] {
				t.Errorf("%q for %s: explanation %+v, interpretation %+v, degree %v", pred, row.EntityID, pe, in, row.PredicateScores[pred])
			}
		}
	}
	if stages[core.MethodW2V] == 0 || stages[core.MethodCooccur] == 0 || stages[core.MethodFallback] == 0 {
		t.Errorf("the predicates do not reach every stage: %v", stages)
	}
}

package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sqlparse"
)

// freshClone copies the fixture with empty memo tables (every entity
// kept), so the clone recomputes what the fixture may already hold.
func freshClone(t testing.TB, db *core.DB) *core.DB {
	t.Helper()
	clone, err := db.ShardDB(func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	return clone
}

// TestInterpretStagesEqualsSeparateCalls: the /interpret handler's single
// call returns exactly what the three separate calls return — over the
// whole predicate bank, with the combined call computing on cold memos so
// the shared mining pass is what is being compared.
func TestInterpretStagesEqualsSeparateCalls(t *testing.T) {
	d, db := testDB(t)
	clone := freshClone(t, db)
	methods := map[core.Method]int{}
	sharedMining := 0
	for _, p := range d.Predicates {
		chosen, w2v, co := clone.InterpretStages(p.Text)
		if want := db.Interpret(p.Text); !reflect.DeepEqual(chosen, want) {
			t.Errorf("%q: chosen %+v, want %+v", p.Text, chosen, want)
		}
		if want := db.InterpretW2VOnly(p.Text); !reflect.DeepEqual(w2v, want) {
			t.Errorf("%q: w2v_only %+v, want %+v", p.Text, w2v, want)
		}
		if want := db.InterpretCooccurOnly(p.Text); !reflect.DeepEqual(co, want) {
			t.Errorf("%q: cooccur_only %+v, want %+v", p.Text, co, want)
		}
		methods[chosen.Method]++
		if chosen.Method != core.MethodW2V && len(co.Terms) > 0 {
			sharedMining++
		}
	}
	if methods[core.MethodW2V] == 0 || methods[core.MethodCooccur] == 0 || methods[core.MethodFallback] == 0 {
		t.Fatalf("the bank does not reach every stage: %v", methods)
	}
	if sharedMining == 0 {
		t.Fatal("no predicate took the shared mining pass")
	}
}

// otherMarker returns a valid interpretation of text that differs from
// the engine's own: same stage-1 shape, another marker.
func otherMarker(t *testing.T, db *core.DB, text string) core.Interpretation {
	t.Helper()
	in := db.Interpret(text)
	if in.Method != core.MethodW2V {
		t.Fatalf("%q is not a stage-1 predicate on this fixture: %+v", text, in)
	}
	n := len(db.Attr(in.Terms[0].Attr).Markers)
	forged := in
	forged.Terms = []core.AttrMarker{{Attr: in.Terms[0].Attr, Marker: (in.Terms[0].Marker + n/2) % n}}
	return forged
}

// TestExecuteResolved: a resolved interpretation equal to the engine's
// own changes nothing; a different one is what the query runs under — for
// that call only, never memoized.
func TestExecuteResolved(t *testing.T) {
	_, db := testDB(t)
	const text = "has really clean rooms"
	q, err := sqlparse.Parse(`select * from Entities where "` + text + `" and "romantic getaway"`)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultQueryOptions()
	want, err := db.Execute(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	honest := map[string]core.Interpretation{text: db.Interpret(text)}
	got, err := freshClone(t, db).ExecuteResolved(q, opts, honest)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resolved execution diverged:\n got %+v\nwant %+v", got, want)
	}

	forged := otherMarker(t, db, text)
	other, err := db.ExecuteResolved(q, opts, map[string]core.Interpretation{text: forged})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(other.Interpretations[text], forged) {
		t.Fatalf("query ran under %+v, not the resolved %+v", other.Interpretations[text], forged)
	}
	if reflect.DeepEqual(other.Rows, want.Rows) {
		t.Fatal("a different interpretation produced the same rows; the test cannot tell which one ran")
	}
	if again := db.Interpret(text); !reflect.DeepEqual(again, honest[text]) {
		t.Fatalf("a resolved entry leaked into the engine's memo: %+v", again)
	}
	after, err := db.Execute(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, want) {
		t.Fatal("a later unresolved execution does not answer as before")
	}
}

// TestTopKThresholdResolved mirrors TestExecuteResolved for the TA path.
func TestTopKThresholdResolved(t *testing.T) {
	_, db := testDB(t)
	preds := []string{"has really clean rooms", "romantic getaway"}
	want, wantStats, err := db.TopKThreshold(preds, 5)
	if err != nil {
		t.Fatal(err)
	}
	honest := map[string]core.Interpretation{}
	for _, p := range preds {
		honest[p] = db.Interpret(p)
	}
	got, gotStats, err := freshClone(t, db).TopKThresholdResolved(preds, 5, honest)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || gotStats != wantStats {
		t.Fatalf("resolved top-k diverged:\n got %+v %+v\nwant %+v %+v", got, gotStats, want, wantStats)
	}
	forged := map[string]core.Interpretation{preds[0]: otherMarker(t, db, preds[0])}
	other, _, err := db.TopKThresholdResolved(preds, 5, forged)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(other, want) {
		t.Fatal("a different interpretation produced the same top-k; the test cannot tell which one ran")
	}
	if after, _, _ := db.TopKThreshold(preds, 5); !reflect.DeepEqual(after, want) {
		t.Fatal("a later unresolved top-k does not answer as before")
	}
}

// TestCheckInterpretation: the shape check that guards the engine from a
// shipped plan it did not make.
func TestCheckInterpretation(t *testing.T) {
	_, db := testDB(t)
	attr := db.Attrs[0]
	term := func(a string, m int) []core.AttrMarker { return []core.AttrMarker{{Attr: a, Marker: m}} }
	for _, tc := range []struct {
		name string
		in   core.Interpretation
		ok   bool
	}{
		{"w2v", core.Interpretation{Method: core.MethodW2V, Terms: term(attr.Name, 0)}, true},
		{"cooccur two terms", core.Interpretation{Method: core.MethodCooccur, Terms: append(term(attr.Name, 0), term(db.Attrs[1].Name, 1)...)}, true},
		{"fallback", core.Interpretation{Method: core.MethodFallback}, true},
		{"engine's own", db.Interpret("has really clean rooms"), true},
		{"unknown method", core.Interpretation{Method: "oracle", Terms: term(attr.Name, 0)}, false},
		{"no method", core.Interpretation{}, false},
		{"unknown attribute", core.Interpretation{Method: core.MethodW2V, Terms: term("no_such_attribute", 0)}, false},
		{"marker past the end", core.Interpretation{Method: core.MethodW2V, Terms: term(attr.Name, len(attr.Markers))}, false},
		{"negative marker", core.Interpretation{Method: core.MethodCooccur, Terms: term(attr.Name, -1)}, false},
		{"w2v without terms", core.Interpretation{Method: core.MethodW2V}, false},
		{"w2v with two terms", core.Interpretation{Method: core.MethodW2V, Terms: append(term(attr.Name, 0), term(attr.Name, 1)...)}, false},
		{"cooccur without terms", core.Interpretation{Method: core.MethodCooccur}, false},
		{"fallback with terms", core.Interpretation{Method: core.MethodFallback, Terms: term(attr.Name, 0)}, false},
	} {
		if err := db.CheckInterpretation(tc.in); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

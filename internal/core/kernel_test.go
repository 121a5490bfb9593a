package core_test

// The compiled query plan and the shared term kernel against the code they
// replaced (oracle_test.go): every float is compared by its bits, because
// the serving contract is byte identity across shards, replicas and
// releases, not closeness.

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/embedding"
	"repro/internal/snapshot"
	"repro/internal/sqlparse"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// bankTexts returns up to n predicate texts spread over the whole bank, so
// every interpreter stage is represented.
func bankTexts(d *corpus.Dataset, n int) []string {
	step := len(d.Predicates)/n + 1
	var out []string
	for i := 0; i < len(d.Predicates); i += step {
		out = append(out, d.Predicates[i].Text)
	}
	return out
}

// TestTermKernelBitIdenticalToOracle: features and degree of every (entity,
// attribute, marker) under the marker's own centroid, 20 bank predicate
// vectors and no vector at all, with the trained membership functions and
// with the heuristics.
func TestTermKernelBitIdenticalToOracle(t *testing.T) {
	d, fix := testDB(t)
	if fix.Membership.MarkerAccuracy == 0 {
		t.Fatal("the fixture should carry a trained marker membership function")
	}
	heuristic := freshClone(t, fix)
	heuristic.UseHeuristicMembership()

	var bank []embedding.Vector
	for _, text := range bankTexts(d, 20) {
		bank = append(bank, fix.Embed.Rep(text))
	}
	for name, db := range map[string]*core.DB{"trained": fix, "heuristic": heuristic} {
		entities := append([]string{"no-such-entity"}, db.EntityIDs()...)
		compared := 0
		for _, attr := range db.Attrs {
			// One marker index on either side of the valid range too.
			for marker := -1; marker <= len(attr.Markers); marker++ {
				vectors := append([]embedding.Vector{nil}, bank...)
				if marker >= 0 && marker < len(attr.Markers) {
					vectors = append(vectors, attr.Markers[marker].Centroid)
				}
				for _, id := range entities {
					for vi, q := range vectors {
						want := db.OracleMarkerFeatures(attr, id, marker, q)
						got := db.KernelMarkerFeatures(attr, id, marker, q)
						for i := range want {
							if !sameBits(got[i], want[i]) {
								t.Fatalf("%s: feature %d of %s.%d for %s under vector %d: %x, want %x",
									name, i, attr.Name, marker, id, vi, got[i], want[i])
							}
						}
						wantD := db.OracleDegreeMarker(attr, id, marker, q)
						if gotD := db.Membership.DegreeMarker(db, id, attr, marker, q); !sameBits(gotD, wantD) {
							t.Fatalf("%s: degree of %s.%d for %s under vector %d: %x, want %x",
								name, attr.Name, marker, id, vi, gotD, wantD)
						}
						compared++
					}
				}
			}
		}
		if compared < 100000 {
			t.Fatalf("%s: only %d comparisons ran", name, compared)
		}
	}
}

// rankQuery is the query RankPredicates builds.
func rankQuery(preds []string) *sqlparse.Query {
	var cond []sqlparse.Cond
	for _, p := range preds {
		cond = append(cond, sqlparse.SubjCond{Text: p})
	}
	return &sqlparse.Query{Select: []string{"*"}, From: "Entities", Where: sqlparse.AndCond{Children: cond}}
}

// equalResults compares two query results field by field, scores by bits.
func equalResults(got, want *core.QueryResult) error {
	if got.Rewritten != want.Rewritten {
		return fmt.Errorf("rewritten %q, want %q", got.Rewritten, want.Rewritten)
	}
	if !reflect.DeepEqual(got.Interpretations, want.Interpretations) {
		return fmt.Errorf("interpretations %+v, want %+v", got.Interpretations, want.Interpretations)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		if g.EntityID != w.EntityID || !sameBits(g.Score, w.Score) {
			return fmt.Errorf("row %d is %s=%x, want %s=%x", i, g.EntityID, g.Score, w.EntityID, w.Score)
		}
		if g.PredicateScores == nil || len(g.PredicateScores) != len(w.PredicateScores) {
			return fmt.Errorf("row %d carries predicate scores %v, want %v", i, g.PredicateScores, w.PredicateScores)
		}
		for text, ws := range w.PredicateScores {
			if gs, ok := g.PredicateScores[text]; !ok || !sameBits(gs, ws) {
				return fmt.Errorf("row %d scores %q at %x, want %x", i, text, gs, ws)
			}
		}
	}
	return nil
}

// TestExecuteEqualsOracle: whole results, the kernel against the
// per-entity interpretation it replaced.
func TestExecuteEqualsOracle(t *testing.T) {
	d, db := testDB(t)

	// The harness query set (harness.QueryFingerprint): every bank
	// predicate alone and with its neighbour, through /query's and /topk's
	// engines.
	var texts []string
	for _, p := range d.Predicates {
		texts = append(texts, p.Text)
	}
	for i, text := range texts {
		sets := [][]string{{text}}
		if i+1 < len(texts) {
			sets = append(sets, []string{text, texts[i+1]})
		}
		for _, preds := range sets {
			want, err := db.OracleExecute(rankQuery(preds), core.DefaultQueryOptions(), nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.RankPredicates(preds, nil, core.DefaultQueryOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := equalResults(got, want); err != nil {
				t.Fatalf("rank %q: %v", preds, err)
			}
			wantRows, wantStats, err := db.OracleTopK(preds, 10)
			if err != nil {
				t.Fatal(err)
			}
			// Twice: the second answer comes from the memoized sources.
			for pass := 0; pass < 2; pass++ {
				gotRows, gotStats, err := db.TopKThreshold(preds, 10)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotRows, wantRows) || gotStats != wantStats {
					t.Fatalf("topk %q pass %d: %v %+v, want %v %+v", preds, pass, gotRows, gotStats, wantRows, wantStats)
				}
			}
		}
	}

	clean, staff, fallback := `"has really clean rooms"`, `"has friendly staff"`, `"good for motorcyclists"`
	if in := db.Interpret("good for motorcyclists"); in.Method != core.MethodFallback {
		t.Fatalf("%s should reach the fallback stage on this fixture: %+v", fallback, in)
	}
	manyReviews := func(reviewer string, _ int) bool { return db.ReviewerReviewCount(reviewer) >= 2 }
	everything := func(o core.QueryOptions) core.QueryOptions { o.TopK = 0; return o }
	cases := []struct {
		name string
		sql  string
		opts core.QueryOptions
		obj  func(string) bool
	}{
		{"no where", `select * from Hotels`, core.DefaultQueryOptions(), nil},
		{"and", `select * from Hotels where ` + clean + ` and ` + staff, core.DefaultQueryOptions(), nil},
		{"or", `select * from Hotels where ` + clean + ` or ` + staff, core.DefaultQueryOptions(), nil},
		{"not", `select * from Hotels where ` + clean + ` and not ` + staff, core.DefaultQueryOptions(), nil},
		{"right-nested and", `select * from Hotels where ` + clean + ` and (` + staff + ` and (` + fallback + ` and "quiet rooms"))`, core.DefaultQueryOptions(), nil},
		{"right-nested or", `select * from Hotels where ` + clean + ` or (` + staff + ` or (` + fallback + ` or "quiet rooms"))`, core.DefaultQueryOptions(), nil},
		{"mixed nesting", `select * from Hotels where (` + clean + ` or ` + staff + `) and not (` + fallback + ` or price_pn > 300)`, core.DefaultQueryOptions(), nil},
		{"objective", `select * from Hotels where price_pn < 200 and ` + clean, core.DefaultQueryOptions(), nil},
		{"objective only", `select * from Hotels where price_pn < 200`, core.DefaultQueryOptions(), nil},
		{"objective string", `select * from Hotels where city = 'london' and ` + staff, core.DefaultQueryOptions(), nil},
		{"unknown column", `select * from Hotels where ` + clean + ` and no_such_column < 3`, core.DefaultQueryOptions(), nil},
		{"string operator on a number", `select * from Hotels where price_pn = 'cheap' and ` + clean, core.DefaultQueryOptions(), nil},
		{"duplicate predicates", `select * from Hotels where ` + clean + ` and (` + staff + ` or ` + clean + `)`, core.DefaultQueryOptions(), nil},
		{"sql limit", `select * from Hotels where ` + clean + ` limit 3`, core.DefaultQueryOptions(), nil},
		{"sql limit beyond the rows", `select * from Hotels where ` + clean + ` limit 5000`, core.DefaultQueryOptions(), nil},
		{"order by", `select * from Hotels where ` + clean + ` order by price_pn limit 7`, core.DefaultQueryOptions(), nil},
		{"order by desc, everything", `select * from Hotels where ` + staff + ` order by price_pn desc`, everything(core.DefaultQueryOptions()), nil},
		{"order by unknown column", `select * from Hotels where ` + clean + ` order by no_such_column`, core.DefaultQueryOptions(), nil},
		{"topk 0", `select * from Hotels where ` + clean + ` and ` + fallback, everything(core.DefaultQueryOptions()), nil},
		{"topk 1", `select * from Hotels where ` + clean, core.QueryOptions{TopK: 1, UseMarkers: true}, nil},
		{"review filter", `select * from Hotels where ` + clean + ` or ` + fallback,
			core.QueryOptions{TopK: 10, UseMarkers: true, ReviewFilter: manyReviews}, nil},
		{"no markers", `select * from Hotels where ` + clean + ` and ` + staff, core.QueryOptions{TopK: 10}, nil},
		{"extra objective", `select * from Hotels where ` + clean, core.DefaultQueryOptions(),
			func(id string) bool { return id[len(id)-1]%2 == 0 }},
	}
	for _, c := range cases {
		q, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got *core.QueryResult
		var gotErr error
		if c.obj != nil {
			// The extra objective filter is RankPredicates' alone.
			preds := sqlparse.SubjectivePredicates(q.Where)
			q = rankQuery(preds)
			got, gotErr = db.RankPredicates(preds, c.obj, c.opts)
		} else {
			got, gotErr = db.Execute(q, c.opts)
		}
		want, wantErr := db.OracleExecute(q, c.opts, c.obj)
		if wantErr != nil || gotErr != nil {
			if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Errorf("%s: error %v, want %v", c.name, gotErr, wantErr)
			}
			continue
		}
		if err := equalResults(got, want); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if len(want.Rows) == 0 && c.name != "unknown column" {
			t.Errorf("%s: the case selects nothing, so it compares nothing", c.name)
		}
	}
}

// TestQueryStatsCountTheScan: the plan reports what it scanned.
func TestQueryStatsCountTheScan(t *testing.T) {
	_, db := testDB(t)
	n := len(db.EntityIDs())
	res, err := db.Query(`select * from Hotels where "has really clean rooms" and "good for motorcyclists" limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	// One stage-1 term plus one fallback score per entity.
	if want := (core.QueryStats{EntitiesScanned: n, DegreesComputed: 2 * n}); res.Stats != want {
		t.Errorf("stats %+v, want %+v", res.Stats, want)
	}
	half, err := db.RankPredicates([]string{"has really clean rooms"}, func(id string) bool { return id < db.EntityIDs()[n/2] }, core.DefaultQueryOptions())
	if err != nil {
		t.Fatal(err)
	}
	if want := (core.QueryStats{EntitiesScanned: n / 2, DegreesComputed: n / 2}); half.Stats != want {
		t.Errorf("filtered stats %+v, want %+v", half.Stats, want)
	}
}

// TestSelectTopEqualsStableSort: bounded selection returns exactly the
// prefix the full stable sort leaves, under heavy score ties and around
// the k = n boundary.
func TestSelectTopEqualsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		rows := make([]core.ResultRow, n)
		for i := range rows {
			// Ids ascending, as execute meets them; few distinct scores.
			rows[i] = core.ResultRow{EntityID: fmt.Sprintf("h%04d", i), Score: float64(1+rng.Intn(4)) / 4}
		}
		sorted := append([]core.ResultRow(nil), rows...)
		sort.SliceStable(sorted, func(i, j int) bool {
			if sorted[i].Score != sorted[j].Score {
				return sorted[i].Score > sorted[j].Score
			}
			return sorted[i].EntityID < sorted[j].EntityID
		})
		// TA meets entities in list order, not id order: select from a
		// shuffled stream too.
		shuffled := append([]core.ResultRow(nil), rows...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, k := range []int{1, n - 1, n, n + 1} {
			if k < 1 {
				continue
			}
			want := sorted[:min(k, n)]
			for _, in := range [][]core.ResultRow{rows, shuffled} {
				if got := core.SelectTop(in, k); !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d k=%d: selected %v, want %v", n, k, got, want)
				}
			}
		}
	}
}

// TestQueryAllocationsAreBoundedByK: a single-predicate top-10 query
// allocates for its plan and its ten rows, never per entity — one
// allocation per scanned entity would alone exceed the bound.
func TestQueryAllocationsAreBoundedByK(t *testing.T) {
	_, db := testDB(t)
	const bound = 80
	if n := len(db.EntityIDs()); n <= bound {
		t.Fatalf("the fixture has %d entities; the bound of %d would not catch a per-entity allocation", n, bound)
	}
	q, err := sqlparse.Parse(`select * from Hotels where "has really clean rooms"`)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultQueryOptions()
	allocs := testing.AllocsPerRun(20, func() {
		if res, err := db.Execute(q, opts); err != nil || len(res.Rows) != opts.TopK {
			t.Fatalf("rows %v, err %v", res, err)
		}
	})
	if allocs > bound {
		t.Errorf("a k=%d query over %d entities allocates %.0f times, want <= %d", opts.TopK, len(db.EntityIDs()), allocs, bound)
	}
}

// TestDegreeListsSurviveWritesTheNodeDoesNotOwn: a replicated write for
// another shard's entity changes no summary on this node, so its memoized
// TA lists stay — and stay right; a write it owns drops them.
func TestDegreeListsSurviveWritesTheNodeDoesNotOwn(t *testing.T) {
	_, fix := testDB(t)
	// A private copy: shards cut from one database share its corpus-global
	// maps, and this test writes.
	path := filepath.Join(t.TempDir(), "fixture.snap")
	if _, err := snapshot.Save(path, fix); err != nil {
		t.Fatal(err)
	}
	whole, _, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := whole.EntityIDs()
	owned, foreign := ids[0], ids[len(ids)-1]
	shard, err := whole.ShardDB(func(id string) bool { return id < ids[len(ids)/2] })
	if err != nil {
		t.Fatal(err)
	}

	const pred = "has really clean rooms"
	in := shard.Interpret(pred)
	if in.Method != core.MethodW2V {
		t.Fatalf("%q is not a stage-1 predicate on this fixture: %+v", pred, in)
	}
	am := in.Terms[0]
	review := func(id, entity string) core.ReviewData {
		return core.ReviewData{ID: id, EntityID: entity, Reviewer: "owner-test", Day: 3600,
			Text: "The room was spotless. The carpet was very clean. The room was immaculate."}
	}
	// cached returns the memoized list for am, filling the memo if asked.
	cached := func(db *core.DB, fill bool) ([]string, []float64, bool) {
		if fill {
			if _, _, err := db.TopKThreshold([]string{pred}, 5); err != nil {
				t.Fatal(err)
			}
		}
		return db.CachedDegreeList(am)
	}
	sameList := func(what string, gotE []string, gotD []float64, wantE []string, wantD []float64) {
		t.Helper()
		if !reflect.DeepEqual(gotE, wantE) || len(gotD) != len(wantD) {
			t.Fatalf("%s: entities %v, want %v", what, gotE, wantE)
		}
		for i := range wantD {
			if !sameBits(gotD[i], wantD[i]) {
				t.Fatalf("%s: %s at %x, want %x", what, gotE[i], gotD[i], wantD[i])
			}
		}
	}

	beforeE, beforeD, ok := cached(shard, true)
	if !ok || len(beforeE) != len(shard.EntityIDs()) {
		t.Fatalf("the degree list was not memoized: %v", beforeE)
	}
	if err := shard.ApplyReview(review("foreign-1", foreign)); err != nil {
		t.Fatal(err)
	}
	keptE, keptD, ok := cached(shard, false)
	if !ok {
		t.Fatal("a write for another shard's entity dropped the degree lists")
	}
	sameList("kept list vs before", keptE, keptD, beforeE, beforeD)
	freshE, freshD, _ := cached(freshClone(t, shard), true)
	sameList("kept list vs recomputed", keptE, keptD, freshE, freshD)

	if err := shard.ApplyReview(review("owned-1", owned)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cached(shard, false); ok {
		t.Fatal("a write this node owns left the stale degree lists in place")
	}
	afterE, afterD, _ := cached(shard, true)
	freshE, freshD, _ = cached(freshClone(t, shard), true)
	sameList("recomputed list", afterE, afterD, freshE, freshD)
	changed := false
	for i := range afterD {
		changed = changed || afterE[i] != beforeE[i] || !sameBits(afterD[i], beforeD[i])
	}
	if !changed {
		t.Error("the owned write moved no degree; the test would not see a stale list")
	}
}

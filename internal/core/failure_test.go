package core_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/corpus"
)

// minimalInput builds the smallest valid BuildInput for failure-injection
// variants.
func minimalInput(t *testing.T) core.BuildInput {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var reviews []core.ReviewData
	texts := []string{
		"The room was very clean. The staff was friendly.",
		"The room was dirty. The staff was rude.",
		"The room was spotless and the staff was kind.",
		"The carpet was stained. The receptionist was helpful.",
	}
	for i := 0; i < 40; i++ {
		reviews = append(reviews, core.ReviewData{
			ID:       "r" + strings.Repeat("0", 3-len(itoa(i)))[:max(0, 3-len(itoa(i)))] + itoa(i),
			EntityID: "e" + itoa(i%4),
			Reviewer: "rev" + itoa(i%7),
			Day:      i * 10,
			Text:     texts[i%len(texts)],
		})
	}
	return core.BuildInput{
		Name: "mini",
		Entities: []core.EntityData{
			{ID: "e0", Objective: map[string]interface{}{"price": 100.0}},
			{ID: "e1", Objective: map[string]interface{}{"price": 200.0}},
			{ID: "e2", Objective: map[string]interface{}{"price": 300.0}},
			{ID: "e3", Objective: map[string]interface{}{"price": nil}},
		},
		Reviews: reviews,
		Attributes: []core.AttrSpec{
			{Name: "room_cleanliness", Seeds: classify.SeedSet{
				Attribute: "room_cleanliness",
				Aspects:   []string{"room", "carpet"},
				Opinions:  []string{"clean", "dirty", "spotless", "stained"},
			}},
			{Name: "staff", Seeds: classify.SeedSet{
				Attribute: "staff",
				Aspects:   []string{"staff", "receptionist"},
				Opinions:  []string{"friendly", "rude", "kind", "helpful"},
			}},
		},
		TaggedTraining: corpus.TaggedFromAspects(corpus.HotelAspects(), corpus.HotelFillers(), 300, rng),
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestBuildMinimalCorpus(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MarkersPerAttr = 2
	db, err := core.Build(minimalInput(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Attrs) != 2 {
		t.Fatalf("attrs = %d", len(db.Attrs))
	}
	res, err := db.Query(`select * from E where "clean room" limit 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no results on minimal corpus")
	}
}

func TestNullObjectiveComparisons(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MarkersPerAttr = 2
	db, err := core.Build(minimalInput(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// e3 has a NULL price: it must be filtered out, not crash the query.
	res, err := db.Query(`select * from E where price < 1000 and "clean room" limit 10`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.EntityID == "e3" {
			t.Error("NULL-price entity passed a price comparison")
		}
	}
}

func TestBuildRejectsUnsupportedObjectiveType(t *testing.T) {
	in := minimalInput(t)
	in.Entities = []core.EntityData{
		{ID: "bad", Objective: map[string]interface{}{"weird": []int{1, 2}}},
	}
	if _, err := core.Build(in, core.DefaultConfig()); err == nil {
		t.Error("slice-typed objective attribute should fail the build")
	}
}

// TestBuildRejectsDuplicateReviewIDs: a review id names one review-index
// document and one sentiment, so a corpus that repeats one is refused
// rather than built into a state its own snapshot would not reload.
func TestBuildRejectsDuplicateReviewIDs(t *testing.T) {
	in := minimalInput(t)
	in.Reviews = append(in.Reviews, in.Reviews[3])
	cfg := core.DefaultConfig()
	cfg.MarkersPerAttr = 2
	if _, err := core.Build(in, cfg); err == nil || !strings.Contains(err.Error(), in.Reviews[3].ID) {
		t.Fatalf("got %v, want an error naming review %s", err, in.Reviews[3].ID)
	}
}

func TestBuildWithReviewsForUnknownEntities(t *testing.T) {
	// Reviews for entities not in the Entities relation are tolerated at
	// build time (they enter the review index and the review → opinion
	// table, but keep no extraction rows or summary, as a write for an
	// entity no node serves does) and the unknown id never appears in
	// query results.
	in := minimalInput(t)
	in.Reviews = append(in.Reviews, core.ReviewData{
		ID: "ghost", EntityID: "nonexistent", Reviewer: "x", Text: "The room was clean.",
	})
	cfg := core.DefaultConfig()
	cfg.MarkersPerAttr = 2
	db, err := core.Build(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`select * from E where "clean room" limit 50`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.EntityID == "nonexistent" {
			t.Error("unknown entity leaked into results")
		}
	}
	// The built state is one FromState accepts (ShardDB rebuilds through
	// it), so a snapshot of this database reloads.
	if _, err := db.ShardDB(func(string) bool { return true }); err != nil {
		t.Errorf("the built state does not reload: %v", err)
	}
}

func TestQueryOnEmptyPredicate(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MarkersPerAttr = 2
	db, err := core.Build(minimalInput(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pure objective query: degenerates to a filter, every passing entity
	// scores 1.
	res, err := db.Query(`select * from E where price < 250 limit 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (e0, e1)", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Score != 1 {
			t.Errorf("objective-only score = %v, want 1", r.Score)
		}
	}
	// No WHERE at all.
	all, err := db.Query(`select * from E limit 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Rows) != 4 {
		t.Fatalf("got %d rows, want all 4", len(all.Rows))
	}
}

func TestInterpretEmptyAndWhitespacePredicates(t *testing.T) {
	_, db := testDB(t)
	for _, text := range []string{"zzz qqq www", "   ", "12345"} {
		in := db.Interpret(text)
		if in.Method == "" {
			t.Errorf("no method for %q", text)
		}
		// Whatever the stage, querying with it must not panic and must
		// return a well-formed (possibly empty) result.
		res, err := db.RankPredicates([]string{text}, nil, core.DefaultQueryOptions())
		if err != nil {
			t.Fatalf("query with %q: %v", text, err)
		}
		for _, r := range res.Rows {
			if r.Score < 0 || r.Score > 1 {
				t.Errorf("score %v out of range", r.Score)
			}
		}
	}
}

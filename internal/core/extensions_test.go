package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
)

// --- Aggregation functions (§4.2.2) -----------------------------------

func TestRebuildSummariesUniformMatchesBuild(t *testing.T) {
	_, db := testDB(t)
	orig := db.Summary("room_cleanliness", firstSummarizedEntity(t, db, "room_cleanliness"))
	prev := db.RebuildSummaries(core.UniformWeight)
	defer db.RestoreSummaries(prev)
	rebuilt := db.Summary("room_cleanliness", firstSummarizedEntity(t, db, "room_cleanliness"))
	if rebuilt.Total != orig.Total {
		t.Errorf("uniform rebuild total %v != original %v", rebuilt.Total, orig.Total)
	}
	for i := range orig.Counts {
		if math.Abs(rebuilt.Counts[i]-orig.Counts[i]) > 1e-9 {
			t.Errorf("marker %d count %v != %v", i, rebuilt.Counts[i], orig.Counts[i])
		}
	}
}

func TestRebuildSummariesRecency(t *testing.T) {
	_, db := testDB(t)
	entity := firstSummarizedEntity(t, db, "room_cleanliness")
	before := db.Summary("room_cleanliness", entity).Total
	// Weight = 1 / (1 + age/365), age in days before day 3650.
	prev := db.RebuildSummaries(func(e *core.Extraction) float64 { return 1 / (1 + float64(3650-e.Day)/365) })
	defer db.RestoreSummaries(prev)
	after := db.Summary("room_cleanliness", entity)
	if after.Total >= before {
		t.Errorf("recency-weighted total %v should be < uniform %v", after.Total, before)
	}
	if after.Total <= 0 {
		t.Error("recency weighting zeroed the summary")
	}
	// Counts stay consistent with total.
	var sum float64
	for _, c := range after.Counts {
		sum += c
	}
	if math.Abs(sum-after.Total) > 1e-9 {
		t.Errorf("weighted counts sum %v != total %v", sum, after.Total)
	}
}

func TestRebuildRestore(t *testing.T) {
	_, db := testDB(t)
	entity := firstSummarizedEntity(t, db, "staff")
	orig := db.Summary("staff", entity)
	prev := db.RebuildSummaries(func(*core.Extraction) float64 { return 2 })
	if db.Summary("staff", entity) == orig {
		t.Error("rebuild did not install new summaries")
	}
	db.RestoreSummaries(prev)
	if db.Summary("staff", entity) != orig {
		t.Error("restore did not reinstall originals")
	}
}

func TestWeightFns(t *testing.T) {
	if core.UniformWeight(&core.Extraction{Day: 1000, Reviewer: "rev0001"}) != 1 {
		t.Error("uniform weight != 1")
	}
}

// --- Incremental ingestion (§4.2.2) ------------------------------------

func TestAddReviewUpdatesSummary(t *testing.T) {
	_, db := testDB(t)
	entity := firstSummarizedEntity(t, db, "room_cleanliness")
	before := db.Summary("room_cleanliness", entity).Total
	beforeExt := db.ExtractionCount()
	err := db.AddReview(core.ReviewData{
		ID:       "new-review-1",
		EntityID: entity,
		Reviewer: "newbie",
		Day:      3000,
		Text:     "The room was very clean. The staff was friendly.",
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.ExtractionCount() <= beforeExt {
		t.Fatal("no extractions ingested from the new review")
	}
	after := db.Summary("room_cleanliness", entity).Total
	if after <= before {
		t.Errorf("summary total %v did not grow from %v", after, before)
	}
	// Provenance for the new extraction resolves.
	rows := db.State().Extractions
	last := rows[len(rows)-1]
	if last.ReviewID != "new-review-1" {
		t.Errorf("last extraction from %s", last.ReviewID)
	}
	// The review participates in retrieval.
	if db.ReviewerReviewCount("newbie") != 1 {
		t.Error("reviewer count not updated")
	}
}

func TestAddReviewValidation(t *testing.T) {
	_, db := testDB(t)
	if err := db.AddReview(core.ReviewData{}); err == nil {
		t.Error("empty review should fail")
	}
	entity := firstSummarizedEntity(t, db, "staff")
	rv := core.ReviewData{ID: "dup-1", EntityID: entity, Reviewer: "x", Text: "The staff was kind."}
	if err := db.AddReview(rv); err != nil {
		t.Fatal(err)
	}
	if err := db.AddReview(rv); err == nil {
		t.Error("duplicate review id should fail")
	}
}

// --- Threshold Algorithm top-k ------------------------------------------

func TestTopKThresholdAgreesWithFullScan(t *testing.T) {
	_, db := testDB(t)
	preds := []string{"has really clean rooms", "has friendly staff"}
	taRows, stats, err := db.TopKThreshold(preds, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(taRows) == 0 {
		t.Fatal("TA returned nothing")
	}
	// Scores sorted descending.
	for i := 1; i < len(taRows); i++ {
		if taRows[i].Score > taRows[i-1].Score {
			t.Error("TA rows not sorted")
		}
	}
	// Compare against the precomputed-degree full scan: aggregate over
	// all entities using the same degree lists, then check set overlap.
	full, _, err := db.TopKThreshold(preds, len(db.EntityIDs()))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for i := 0; i < 10 && i < len(full); i++ {
		want[full[i].EntityID] = true
	}
	agree := 0
	for _, r := range taRows {
		if want[r.EntityID] {
			agree++
		}
	}
	if agree < len(taRows) {
		t.Errorf("TA top-10 disagrees with exhaustive ranking: %d/%d", agree, len(taRows))
	}
	if stats.SortedAccesses == 0 || stats.Candidates == 0 {
		t.Errorf("stats not collected: %+v", stats)
	}
}

func TestTopKThresholdEarlyTermination(t *testing.T) {
	_, db := testDB(t)
	preds := []string{"has really clean rooms", "has friendly staff"}
	_, stats, err := db.TopKThreshold(preds, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := len(db.EntityIDs())
	if stats.Depth >= n {
		t.Errorf("TA consumed every list position (%d of %d); no early termination", stats.Depth, n)
	}
}

func TestTopKThresholdFallbackPredicate(t *testing.T) {
	_, db := testDB(t)
	rows, _, err := db.TopKThreshold([]string{"good for motorcyclists"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows for fallback predicate")
	}
}

func TestTopKThresholdDefaults(t *testing.T) {
	_, db := testDB(t)
	rows, _, err := db.TopKThreshold([]string{"has friendly staff"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) > 10 {
		t.Errorf("default k should cap at 10, got %d", len(rows))
	}
	empty, _, err := db.TopKThreshold(nil, 5)
	if err != nil || empty != nil {
		t.Errorf("empty predicates = %v, %v", empty, err)
	}
}

// firstSummarizedEntity returns an entity with a non-empty summary for
// the attribute.
func firstSummarizedEntity(t *testing.T, db *core.DB, attr string) string {
	t.Helper()
	for _, id := range db.EntityIDs() {
		if s := db.Summary(attr, id); s != nil && s.Total > 0 {
			return id
		}
	}
	t.Fatalf("no entity with %s extractions", attr)
	return ""
}

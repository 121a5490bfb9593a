package core_test

import (
	"testing"

	"repro/internal/core"
)

// TestDegreeListsInvalidatedOnRebuild ensures TA results reflect the
// installed weighting rather than a stale precomputation.
func TestDegreeListsInvalidatedOnRebuild(t *testing.T) {
	_, db := testDB(t)
	preds := []string{"has really clean rooms"}
	before, _, err := db.TopKThreshold(preds, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Zero out almost everything via an aggressive recency weighting,
	// 1 / (1 + age in days before day 3650): only the newest reviews count.
	prev := db.RebuildSummaries(func(e *core.Extraction) float64 { return 1 / (1 + float64(3650-e.Day)) })
	defer func() {
		db.RestoreSummaries(prev)
	}()
	after, _, err := db.TopKThreshold(preds, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || len(after) == 0 {
		t.Skip("empty rankings at this draw")
	}
	// Scores must differ for at least one entity (the weighting collapsed
	// nearly all mass); identical score vectors imply a stale cache.
	changed := false
	beforeScores := map[string]float64{}
	for _, r := range before {
		beforeScores[r.EntityID] = r.Score
	}
	for _, r := range after {
		if s, ok := beforeScores[r.EntityID]; !ok || s != r.Score {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("TA scores identical after rebuild; degree lists look stale")
	}
	// And restoring brings the original TA ranking back.
	db.RestoreSummaries(prev)
	restored, _, err := db.TopKThreshold(preds, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if restored[i].EntityID != before[i].EntityID || restored[i].Score != before[i].Score {
			t.Fatal("restore did not reproduce the original TA ranking")
		}
	}
}

// TestAddReviewInvalidatesTACaches mirrors the staleness check for
// incremental ingestion.
func TestAddReviewInvalidatesTACaches(t *testing.T) {
	_, db := testDB(t)
	entity := firstSummarizedEntity(t, db, "room_cleanliness")
	preds := []string{"has really clean rooms"}
	if _, _, err := db.TopKThreshold(preds, 5); err != nil { // warm cache
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		err := db.AddReview(core.ReviewData{
			ID:       "ta-cache-" + string(rune('a'+i)),
			EntityID: entity,
			Reviewer: "cachetester",
			Day:      3600,
			Text:     "The room was spotless. The carpet was very clean. The room was immaculate.",
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rows, _, err := db.TopKThreshold(preds, len(db.EntityIDs()))
	if err != nil {
		t.Fatal(err)
	}
	// The freshly praised entity must appear with a nonzero degree.
	for _, r := range rows {
		if r.EntityID == entity {
			if r.Score <= 0 {
				t.Errorf("entity %s score %v after six glowing reviews", entity, r.Score)
			}
			return
		}
	}
	t.Errorf("entity %s missing from TA ranking after ingestion", entity)
}

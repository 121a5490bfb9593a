package journal_test

// Reviewer review counts are persisted state (core.DBState.
// ReviewsPerReviewer), not a scan of a reviews relation, so every path a
// database's state travels — build, snapshot, shard split, shard merge,
// live writes on a shard, journal compaction — must carry them intact.

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/snapshot"
)

// Reviewers whose only review yields no extraction: a count derived from
// db.Extractions would miss them.
const (
	quietBase       = "quiet-base"
	quietOwned      = "quiet-owned"
	quietReplicated = "quiet-replicated"
	quietText       = "We arrived on a Tuesday."
)

func TestReviewerCountsSurviveEveryStatePath(t *testing.T) {
	genCfg := corpus.SmallConfig()
	genCfg.Seed = 1
	d := corpus.GenerateHotels(genCfg)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	in := harness.BuildInputFromDataset(d, 400, 300, rand.New(rand.NewSource(cfg.Seed+13)))
	// Hold out reviews from both ends of the entity-ordered review list, so
	// the deltas land on both shards.
	n := len(in.Reviews)
	heldOut := append(append([]core.ReviewData(nil), in.Reviews[:4]...), in.Reviews[n-4:]...)
	in.Reviews = append(append([]core.ReviewData(nil), in.Reviews[4:n-4]...), core.ReviewData{
		ID: "quiet-base-1", EntityID: in.Entities[0].ID, Reviewer: quietBase, Day: 1, Text: quietText,
	})
	base, err := core.Build(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards, parts, err := base.Shards(2)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := core.MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}

	// Deltas split by whether shard 0 owns their entity.
	owned := []core.ReviewData{{ID: "quiet-owned-1", EntityID: parts[0][0], Reviewer: quietOwned, Day: 2, Text: quietText}}
	replicated := []core.ReviewData{{ID: "quiet-repl-1", EntityID: parts[1][0], Reviewer: quietReplicated, Day: 3, Text: quietText}}
	for _, rv := range heldOut {
		if shards[0].ServesEntity(rv.EntityID) {
			owned = append(owned, rv)
		} else {
			replicated = append(replicated, rv)
		}
	}
	if len(owned) < 2 || len(replicated) < 2 {
		t.Fatalf("held-out reviews split %d owned / %d replicated; both need a real review", len(owned)-1, len(replicated)-1)
	}

	dir := t.TempDir()
	baseSnap := filepath.Join(dir, "base.snap")
	if _, err := snapshot.Save(baseSnap, base); err != nil {
		t.Fatal(err)
	}
	shardSnap := filepath.Join(dir, "shard0.snap")
	if _, err := snapshot.Save(shardSnap, shards[0]); err != nil {
		t.Fatal(err)
	}
	loadApply := func(path string, deltas []core.ReviewData) func(t *testing.T) *core.DB {
		return func(t *testing.T) *core.DB {
			db := loadBase(t, path)
			applyDirect(t, db, deltas)
			return db
		}
	}
	compacted := func(t *testing.T) *core.DB {
		snap := filepath.Join(t.TempDir(), "compact.snap")
		if _, err := snapshot.Save(snap, base); err != nil {
			t.Fatal(err)
		}
		journalDeltas(t, journal.Dir(snap), append(append([]core.ReviewData(nil), owned...), replicated...), journal.Options{})
		if _, st, err := journal.Compact(snap, snap); err != nil || st.Applied != len(owned)+len(replicated) {
			t.Fatalf("compact applied %d: %v", st.Applied, err)
		}
		return loadBase(t, snap)
	}
	inMemory := func(db *core.DB) func(*testing.T) *core.DB {
		return func(*testing.T) *core.DB { return db }
	}

	baseReviews := in.Reviews
	// want is tallied from the reviews each state has ingested; the Build
	// row holds the freshly built monolith to that tally, so every other
	// row is compared with the monolith's counts.
	// ids is the entity range each state serves.
	all := base.EntityIDs()
	cases := []struct {
		name    string
		db      func(t *testing.T) *core.DB
		reviews [][]core.ReviewData
		ids     []string
	}{
		{"Build", inMemory(base), [][]core.ReviewData{baseReviews}, all},
		{"snapshot save and load", loadApply(baseSnap, nil), [][]core.ReviewData{baseReviews}, all},
		{"ShardDB shard 0", inMemory(shards[0]), [][]core.ReviewData{baseReviews}, parts[0]},
		{"ShardDB shard 1", inMemory(shards[1]), [][]core.ReviewData{baseReviews}, parts[1]},
		{"MergeShards", inMemory(merged), [][]core.ReviewData{baseReviews}, all},
		{"ApplyReview owned on a loaded shard", loadApply(shardSnap, owned), [][]core.ReviewData{baseReviews, owned}, parts[0]},
		{"ApplyReview replicated on a loaded shard", loadApply(shardSnap, replicated), [][]core.ReviewData{baseReviews, replicated}, parts[0]},
		{"journal.Compact", compacted, [][]core.ReviewData{baseReviews, owned, replicated}, all},
	}
	reviewers := map[string]bool{}
	for _, rvs := range [][]core.ReviewData{baseReviews, owned, replicated} {
		for _, rv := range rvs {
			reviewers[rv.Reviewer] = true
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := c.db(t)
			want := map[string]int{}
			for _, rvs := range c.reviews {
				for _, rv := range rvs {
					want[rv.Reviewer]++
				}
			}
			for r := range reviewers {
				if got := db.ReviewerReviewCount(r); got != want[r] {
					t.Errorf("reviewer %q: %d reviews, want %d", r, got, want[r])
				}
			}
			for _, x := range db.Extractions {
				switch x.Reviewer {
				case quietBase, quietOwned, quietReplicated:
					t.Fatalf("fixture review %s yields an extraction; pick a text without opinions", x.ReviewID)
				}
			}
			// The Entities relation is row-aligned with the entity ids and
			// is the monolith's relation restricted to the served range.
			if !reflect.DeepEqual(db.EntityIDs(), c.ids) || !reflect.DeepEqual(db.Rel.IDs(), c.ids) {
				t.Errorf("entity ids %v, relation ids %v, want %v", db.EntityIDs(), db.Rel.IDs(), c.ids)
			}
			if got, want := db.Rel.Schema(), base.Rel.Schema(); !reflect.DeepEqual(got, want) {
				t.Errorf("relation schema %+v, want %+v", got, want)
			}
			for e, id := range db.EntityIDs() {
				be, ok := base.Rel.Find(id)
				if !ok || !reflect.DeepEqual(db.Rel.Row(e), base.Rel.Row(be)) {
					t.Errorf("entity %s: row %v, want the monolith's %v", id, db.Rel.Row(e), base.Rel.Row(be))
				}
			}
		})
	}
}

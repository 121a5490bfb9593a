package journal_test

// Reviewer review counts (core.DBState.ReviewsPerReviewer) and the
// partitioned extraction relation (a node's rows plus the replicated
// review → opinion table) are persisted state, so every path a database's
// state travels — build, snapshot, shard split, shard merge, live writes
// on a shard, journal replay and compaction — must carry them intact. So
// must it carry the marker summaries' centroid norms, which no file
// stores: every path rederives them.

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/embedding"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/snapshot"
)

// Reviewers whose only review yields no extraction: a count derived from
// the extraction rows would miss them.
const (
	quietBase       = "quiet-base"
	quietOwned      = "quiet-owned"
	quietReplicated = "quiet-replicated"
	quietText       = "We arrived on a Tuesday."
)

// statePath is one way a database's state travels. reviews lists the
// review batches it has ingested, in order; ids is the entity range it
// serves; monolith is the monolith that ingested the same batches in the
// same order.
type statePath struct {
	name     string
	db       func(t *testing.T) *core.DB
	reviews  [][]core.ReviewData
	ids      []string
	monolith func(t *testing.T) *core.DB
}

// statePaths builds a two-shard fixture over a small hotel corpus and
// returns every state path, plus every reviewer the paths' reviews name.
// Held-out reviews land on both shards, and each batch of writes carries
// a review that yields no extraction.
func statePaths(t *testing.T) ([]statePath, map[string]bool) {
	t.Helper()
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
	both := append(append([]core.ReviewData(nil), owned...), replicated...)

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
	// journaled copies db's snapshot with deltas in its journal; then
	// replays it (compact false) or compacts it and loads the result.
	journaled := func(db *core.DB, compact bool) func(t *testing.T) *core.DB {
		return func(t *testing.T) *core.DB {
			snap := filepath.Join(t.TempDir(), "journaled.snap")
			if _, err := snapshot.Save(snap, db); err != nil {
				t.Fatal(err)
			}
			journalDeltas(t, journal.Dir(snap), both, journal.Options{})
			if !compact {
				replayed, _, st, err := journal.LoadWithJournal(snap)
				if err != nil || st.Applied != len(both) {
					t.Fatalf("replay applied %d: %v", st.Applied, err)
				}
				return replayed
			}
			if _, st, err := journal.Compact(snap, snap); err != nil || st.Applied != len(both) {
				t.Fatalf("compact applied %d: %v", st.Applied, err)
			}
			return loadBase(t, snap)
		}
	}
	// repeatsReplayed journals deltas in short segments with two of them
	// written twice, and replays the journal into db's snapshot with
	// ApplyAll, whose workers prepare ahead of the fold.
	repeatsReplayed := func(db *core.DB) func(t *testing.T) *core.DB {
		return func(t *testing.T) *core.DB {
			snap := filepath.Join(t.TempDir(), "repeats.snap")
			if _, err := snapshot.Save(snap, db); err != nil {
				t.Fatal(err)
			}
			deltas := slices.Concat(both[:3], both[:1], both[3:], both[len(both)-1:])
			journalDeltas(t, journal.Dir(snap), deltas, journal.Options{SegmentMaxBytes: 700})
			replayed := loadBase(t, snap)
			st, err := journal.ApplyAll(replayed, journal.Dir(snap))
			if err != nil || st.Applied != len(both) || st.Skipped != 2 || st.Segments < 2 {
				t.Fatalf("replay applied %d, skipped %d over %d segments: %v", st.Applied, st.Skipped, st.Segments, err)
			}
			return replayed
		}
	}
	inMemory := func(db *core.DB) func(*testing.T) *core.DB {
		return func(*testing.T) *core.DB { return db }
	}

	baseReviews := in.Reviews
	all := base.EntityIDs()
	paths := []statePath{
		{"Build", inMemory(base), [][]core.ReviewData{baseReviews}, all, inMemory(base)},
		{"snapshot save and load", loadApply(baseSnap, nil), [][]core.ReviewData{baseReviews}, all, inMemory(base)},
		{"ShardDB shard 0", inMemory(shards[0]), [][]core.ReviewData{baseReviews}, parts[0], inMemory(base)},
		{"ShardDB shard 1", inMemory(shards[1]), [][]core.ReviewData{baseReviews}, parts[1], inMemory(base)},
		{"MergeShards", inMemory(merged), [][]core.ReviewData{baseReviews}, all, inMemory(base)},
		{"ApplyReview owned on a loaded shard", loadApply(shardSnap, owned), [][]core.ReviewData{baseReviews, owned}, parts[0], loadApply(baseSnap, owned)},
		{"ApplyReview replicated on a loaded shard", loadApply(shardSnap, replicated), [][]core.ReviewData{baseReviews, replicated}, parts[0], loadApply(baseSnap, replicated)},
		{"journal replay on a shard", journaled(shards[0], false), [][]core.ReviewData{baseReviews, owned, replicated}, parts[0], loadApply(baseSnap, both)},
		{"journal.ApplyAll over short segments with repeats on a shard", repeatsReplayed(shards[0]), [][]core.ReviewData{baseReviews, owned, replicated}, parts[0], loadApply(baseSnap, both)},
		{"journal.Compact", journaled(base, true), [][]core.ReviewData{baseReviews, owned, replicated}, all, loadApply(baseSnap, both)},
	}
	reviewers := map[string]bool{}
	for _, rvs := range [][]core.ReviewData{baseReviews, owned, replicated} {
		for _, rv := range rvs {
			reviewers[rv.Reviewer] = true
		}
	}
	return paths, reviewers
}

func TestReviewerCountsSurviveEveryStatePath(t *testing.T) {
	paths, reviewers := statePaths(t)
	for _, c := range paths {
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
			for _, x := range c.monolith(t).State().Extractions {
				switch x.Reviewer {
				case quietBase, quietOwned, quietReplicated:
					t.Fatalf("fixture review %s yields an extraction; pick a text without opinions", x.ReviewID)
				}
			}
			// The Entities relation is row-aligned with the entity ids and
			// is the monolith's relation restricted to the served range.
			base := c.monolith(t)
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

// TestExtractionPartitionSurvivesEveryStatePath: on every state path a
// node's extraction rows are the monolith's rows restricted to the
// entities it serves, in id order, and its review → opinion table is the
// monolith's whole table.
func TestExtractionPartitionSurvivesEveryStatePath(t *testing.T) {
	paths, _ := statePaths(t)
	for _, c := range paths {
		t.Run(c.name, func(t *testing.T) {
			got, mono := c.db(t).State(), c.monolith(t)
			want := mono.State()
			if len(want.Extractions) != mono.ExtractionCount() {
				t.Fatalf("the monolith holds %d rows of %d extractions", len(want.Extractions), mono.ExtractionCount())
			}
			var rows []core.Extraction
			for _, x := range want.Extractions {
				if _, ok := slices.BinarySearch(c.ids, x.EntityID); ok {
					rows = append(rows, x)
				}
			}
			if len(rows) == 0 {
				t.Fatal("the served range has no extraction rows; the check would be vacuous")
			}
			if !slices.Equal(got.Extractions, rows) {
				t.Errorf("%d rows, want the monolith's %d rows of the served range", len(got.Extractions), len(rows))
			}
			if !slices.Equal(got.OpStart, want.OpStart) || !slices.Equal(got.Ops, want.Ops) {
				t.Errorf("review → opinion table of %d documents / %d opinions, want the monolith's %d / %d",
					len(got.OpStart)-1, len(got.Ops), len(want.OpStart)-1, len(want.Ops))
			}
		})
	}
}

// TestCentroidsSurviveEveryStatePath: a summary stores no centroid, only
// its norm, and the f5 dot product is read from the marker's sum. On every
// state path — markers an owned write touched after load included — both
// must carry the bits of the materialized centroid, Centroid(m), for every
// served (attribute, entity, marker) against every bank predicate's
// representation and every marker centroid of the schema (the query
// vector of a TA degree list).
func TestCentroidsSurviveEveryStatePath(t *testing.T) {
	genCfg := corpus.SmallConfig()
	genCfg.Seed = 1
	bank := corpus.GenerateHotels(genCfg).Predicates
	paths, _ := statePaths(t)
	for _, c := range paths {
		t.Run(c.name, func(t *testing.T) {
			db := c.db(t)
			ownedIDs := map[int]bool{}
			for _, rvs := range c.reviews[1:] {
				for _, rv := range rvs {
					if !slices.Contains(c.ids, rv.EntityID) {
						continue
					}
					for _, x := range db.State().Extractions {
						if x.ReviewID == rv.ID {
							ownedIDs[x.ID] = true
						}
					}
				}
			}
			var qs []embedding.Vector
			for _, p := range bank {
				if q := db.Embed.Rep(p.Text); q != nil {
					qs = append(qs, q)
				}
			}
			for _, a := range db.Attrs {
				for _, mk := range a.Markers {
					qs = append(qs, mk.Centroid)
				}
			}
			checked, touched := 0, 0
			for _, a := range db.Attrs {
				for _, id := range db.EntityIDs() {
					s := db.Summaries[a.Name][id]
					if s == nil {
						continue
					}
					for m := range a.Markers {
						cen := s.Centroid(m)
						if got, want := s.CentroidNorm(m), cen.Norm(); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s/%s marker %d: norm %v, want %v", a.Name, id, m, got, want)
						}
						for qi, q := range qs {
							if got, want := s.CentroidDot(m, q), q.Dot(cen); math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s/%s marker %d, query %d: dot %v, want %v", a.Name, id, m, qi, got, want)
							}
						}
						checked++
						if slices.ContainsFunc(s.Provenance[m], func(x int) bool { return ownedIDs[x] }) {
							touched++
						}
					}
				}
			}
			if checked == 0 {
				t.Fatal("no served summary; the check would be vacuous")
			}
			if len(ownedIDs) > 0 && touched == 0 {
				t.Fatal("the path's owned writes touched no checked marker")
			}
			t.Logf("%d markers, %d touched by owned writes, %d query vectors", checked, touched, len(qs))
		})
	}
}

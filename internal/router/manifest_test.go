package router_test

// FromManifest loads a fleet's shards concurrently but runs its hooks one
// at a time, in manifest order. These tests hold it to that contract on a
// journaled fleet, and to failing cleanly: the first error in manifest
// order, no hook after it, no goroutine left behind.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// enrichedFleet copies the fixture's shard snapshots and manifest into a
// fresh directory and journals the same review deltas next to every shard,
// as a routed write leaves them. It returns the manifest path and the
// deltas, in journal order.
func enrichedFleet(t *testing.T, m *snapshot.Manifest) (string, []core.ReviewData) {
	t.Helper()
	dir := t.TempDir()
	copyFile(t, e2eManifest, filepath.Join(dir, filepath.Base(e2eManifest)))
	texts := []string{
		"The room was very clean and the staff were friendly.",
		"Breakfast was terrible and the bathroom was dirty.",
		"Very noisy at night, but the bed was comfortable.",
		"Great location, friendly staff and a clean room.",
	}
	ids := e2eDB.EntityIDs()
	var deltas []core.ReviewData
	for i := range 16 {
		deltas = append(deltas, core.ReviewData{
			ID: fmt.Sprintf("enrich-%d", i), EntityID: ids[(i*37)%len(ids)],
			Reviewer: fmt.Sprintf("guest-%d", i%5), Day: 5000 + i, Text: texts[i%len(texts)],
		})
	}
	for _, ms := range m.Shard {
		src := snapshot.ShardPath(e2eManifest, ms)
		dst := filepath.Join(dir, filepath.Base(src))
		copyFile(t, src, dst)
		j, err := journal.Open(journal.Dir(dst), journal.Options{SegmentMaxBytes: 1 << 10, SyncEvery: len(deltas)})
		if err != nil {
			t.Fatal(err)
		}
		for _, rv := range deltas {
			if _, err := j.Append(journal.Review{ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, filepath.Base(e2eManifest)), deltas
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// hookLog records the hooks FromManifest runs and whether two ever ran
// at once.
type hookLog struct {
	inFlight atomic.Int32
	overlap  atomic.Bool
	calls    []string
}

func (h *hookLog) enter(call string) {
	if h.inFlight.Add(1) != 1 {
		h.overlap.Store(true)
	}
	h.calls = append(h.calls, call)
}

func (h *hookLog) leave() { h.inFlight.Add(-1) }

// options are the hooks of a journaled in-process fleet: the server hook
// replays the shard's journal, as opinedbd and the benchmark do.
func (h *hookLog) options(t *testing.T, replicas int, wantApplied int) router.ManifestOptions {
	return router.ManifestOptions{
		Replicas: replicas,
		ShardServer: func(shard, replica int, path string, db *core.DB, _ *snapshot.Meta) server.Options {
			h.enter(fmt.Sprintf("server %d.%d", shard, replica))
			defer h.leave()
			st, err := journal.ApplyAll(db, journal.Dir(path))
			if err != nil || st.Applied != wantApplied {
				t.Errorf("shard %d.%d: replay applied %d of %d: %v", shard, replica, st.Applied, wantApplied, err)
			}
			return server.Options{}
		},
		WrapBackend: func(shard, replica int, b router.Backend) router.Backend {
			h.enter(fmt.Sprintf("wrap %d.%d", shard, replica))
			defer h.leave()
			return b
		},
	}
}

// stressProcs are the GOMAXPROCS values the FromManifest tests run at:
// FromManifest starts at most GOMAXPROCS loads at once, so at one there
// would be a single loader and the race detector would never see two
// shard loads run concurrently.
var stressProcs = []int{2, 4}

// manifestOrder is the hook sequence FromManifest promises for the first
// `shards` shards: shard by shard, replica by replica, server then wrap.
func manifestOrder(shards, replicas int) []string {
	var out []string
	for s := range shards {
		for r := range replicas {
			out = append(out, fmt.Sprintf("server %d.%d", s, r), fmt.Sprintf("wrap %d.%d", s, r))
		}
	}
	return out
}

// TestFromManifestHooksSerialInOrder opens a journaled four-shard fleet at
// one and two replicas per range, each at every stressProcs value: the
// hooks never overlap, run in manifest order, and the fleet answers like
// a monolith that replayed the same journal.
func TestFromManifestHooksSerialInOrder(t *testing.T) {
	d, _, m, _ := e2eFixture(t)
	manifestPath, deltas := enrichedFleet(t, m)

	monoSnap := filepath.Join(t.TempDir(), "monolith.snap")
	if _, err := snapshot.Save(monoSnap, e2eDB); err != nil {
		t.Fatal(err)
	}
	mono, _, err := snapshot.Load(monoSnap)
	if err != nil {
		t.Fatal(err)
	}
	for _, rv := range deltas {
		if err := mono.ApplyReview(rv); err != nil {
			t.Fatal(err)
		}
	}
	want, n := harness.QueryFingerprint(d, mono)
	if n != 948 {
		t.Fatalf("fingerprint covers %d entries, want 948", n)
	}

	for _, replicas := range []int{1, 2} {
		for _, procs := range stressProcs {
			t.Run(fmt.Sprintf("R=%d, GOMAXPROCS %d", replicas, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var h hookLog
				rt, _, err := router.FromManifest(manifestPath, h.options(t, replicas, len(deltas)))
				if err != nil {
					t.Fatal(err)
				}
				if h.overlap.Load() {
					t.Error("two hooks ran at once")
				}
				if wantOrder := manifestOrder(m.Shards, replicas); !slices.Equal(h.calls, wantOrder) {
					t.Errorf("hooks ran as %v, want %v", h.calls, wantOrder)
				}
				if got, _ := harness.QueryFingerprint(d, rt.Engine(context.Background())); got != want {
					t.Fatalf("the fleet diverges from the monolith replay:\n%s", firstDiff(want, got))
				}
			})
		}
	}
}

// TestFromManifestReplicasShareNoState opens a journaled four-shard fleet
// at two replicas per range. A range's file is verified once but each
// replica decodes its own database: the ShardServer hook sees a distinct
// *core.DB for every node, and a write applied to one replica's database
// leaves its peer's answers unchanged.
func TestFromManifestReplicasShareNoState(t *testing.T) {
	d, _, m, _ := e2eFixture(t)
	manifestPath, deltas := enrichedFleet(t, m)
	dbs := make([][]*core.DB, m.Shards)
	h := new(hookLog)
	opts := h.options(t, 2, len(deltas))
	replay := opts.ShardServer
	opts.ShardServer = func(shard, replica int, path string, db *core.DB, meta *snapshot.Meta) server.Options {
		dbs[shard] = append(dbs[shard], db)
		return replay(shard, replica, path, db, meta)
	}
	if _, _, err := router.FromManifest(manifestPath, opts); err != nil {
		t.Fatal(err)
	}
	seen := map[*core.DB]string{}
	for s, reps := range dbs {
		if len(reps) != 2 {
			t.Fatalf("shard %d: hook saw %d replicas, want 2", s, len(reps))
		}
		for r, db := range reps {
			if prev, dup := seen[db]; dup {
				t.Fatalf("shard %d.%d got the database of %s", s, r, prev)
			}
			seen[db] = fmt.Sprintf("%d.%d", s, r)
		}
	}

	ms := m.Shard[0]
	peer := dbs[0][1]
	before, _ := harness.QueryFingerprint(d, peer)
	if err := dbs[0][0].ApplyReview(core.ReviewData{
		ID: "replica-only", EntityID: ms.FirstEntity, Reviewer: "guest-x", Day: 6000,
		Text: "The room was filthy and the staff were rude.",
	}); err != nil {
		t.Fatal(err)
	}
	if dbs[0][0].HasReview("replica-only") == peer.HasReview("replica-only") {
		t.Fatal("the write reached both replicas, or neither")
	}
	if moved, _ := harness.QueryFingerprint(d, dbs[0][0]); moved == before {
		t.Fatal("the write did not move replica 0's answers, so the peer's cannot show sharing")
	}
	if after, _ := harness.QueryFingerprint(d, peer); after != before {
		t.Fatalf("a write to replica 0 moved replica 1's answers:\n%s", firstDiff(before, after))
	}
}

// TestFromManifestFailsCleanly breaks shards of a journaled fleet: the
// call fails naming the first broken shard in manifest order, no hook runs
// for it or any later shard, and every goroutine the call started is gone.
func TestFromManifestFailsCleanly(t *testing.T) {
	_, _, m, _ := e2eFixture(t)
	// corrupt returns a fresh journaled fleet whose manifest records a
	// wrong digest for each broken shard.
	corrupt := func(t *testing.T, broken ...int) (string, []core.ReviewData) {
		t.Helper()
		path, deltas := enrichedFleet(t, m)
		bad, err := snapshot.LoadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range broken {
			bad.Shard[i].SnapshotSHA256 = strings.Repeat("0", 64)
		}
		if err := snapshot.WriteManifest(path, bad); err != nil {
			t.Fatal(err)
		}
		return path, deltas
	}
	for _, c := range []struct {
		name   string
		broken []int
		first  int
	}{
		{"shard 2's digest is wrong", []int{2}, 2},
		{"shards 1 and 3 are broken", []int{3, 1}, 1},
	} {
		for _, replicas := range []int{1, 2} {
			for _, procs := range stressProcs {
				t.Run(fmt.Sprintf("%s, R=%d, GOMAXPROCS %d", c.name, replicas, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					path, deltas := corrupt(t, c.broken...)
					baseline := runtime.NumGoroutine()
					var h hookLog
					_, _, err := router.FromManifest(path, h.options(t, replicas, len(deltas)))
					if in := stacksIn("snapshot.OpenShard") + stacksIn("snapshot.(*ShardImage).Decode"); in > 0 {
						t.Errorf("%d shard loads still running after FromManifest returned", in)
					}
					if !errors.Is(err, snapshot.ErrShardDigest) || !strings.Contains(err.Error(), fmt.Sprintf("(shard %d,", c.first)) {
						t.Fatalf("error %v, want a digest mismatch naming shard %d", err, c.first)
					}
					if wantOrder := manifestOrder(c.first, replicas); !slices.Equal(h.calls, wantOrder) {
						t.Errorf("hooks ran as %v, want %v", h.calls, wantOrder)
					}
					// A goroutine that has signalled its WaitGroup may not have
					// returned yet: give the scheduler a moment.
					for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
						if time.Now().After(deadline) {
							t.Fatalf("%d goroutines after the failed open, %d before", runtime.NumGoroutine(), baseline)
						}
						time.Sleep(time.Millisecond)
					}
				})
			}
		}
	}
}

// stacksIn counts the goroutines with fn on their stack.
func stacksIn(fn string) int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), fn+"(")
}

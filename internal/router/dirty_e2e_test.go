package router_test

// The write rule that keeps every node's journal a prefix of the fleet
// order: a node that missed a write is dirty and receives nothing but its
// backfill, in fleet order, so no later write can land on it before an
// earlier one.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// gapInjector wraps a node's backend. While tripped it fails the
// replicated POST of one review and every journal probe (so heal passes
// fail too), forwards everything else, and counts the review POSTs it
// forwarded.
type gapInjector struct {
	router.Backend
	mu        sync.Mutex
	tripped   bool
	failID    string
	forwarded int
}

func (g *gapInjector) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	g.mu.Lock()
	tripped, failID := g.tripped, g.failID
	g.mu.Unlock()
	if tripped && strings.HasPrefix(target, "/journal/") {
		return 0, nil, fmt.Errorf("injected fault: %s unreachable", g.Name())
	}
	if tripped && method == http.MethodPost && target == "/reviews" {
		var req server.ReviewRequest
		if json.Unmarshal(body, &req) == nil && req.ID == failID {
			return 0, nil, fmt.Errorf("injected fault: %s dropped %s", g.Name(), req.ID)
		}
		g.mu.Lock()
		g.forwarded++
		g.mu.Unlock()
	}
	return g.Backend.Do(ctx, method, target, body)
}

func (g *gapInjector) set(tripped bool, failID string) {
	g.mu.Lock()
	g.tripped, g.failID, g.forwarded = tripped, failID, 0
	g.mu.Unlock()
}

func (g *gapInjector) forwardedWhileTripped() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.forwarded
}

// TestDirtyNodeReceivesOnlyItsBackfill: shard 0's node misses W1 and
// every heal probe while writes W2…W4 it does not own are routed. It
// journals none of them while dirty; a write its range owns is refused
// with 503 and journaled nowhere; once the fault clears, the next
// write's heal brings it level. Its journal then hashes like a healthy
// node's at every seq, and its state fingerprints like an always-healthy
// twin's, live and after snapshot + journal replay.
func TestDirtyNodeReceivesOnlyItsBackfill(t *testing.T) {
	d, deltas, _ := ingestFixture(t)
	paths, ranges := planShards(t)
	const faulty = 0
	ownerOf := func(entity string) int {
		for i, ids := range ranges {
			if entity >= ids[0] && entity <= ids[len(ids)-1] {
				return i
			}
		}
		return -1
	}
	var writes []core.ReviewData
	for _, rv := range deltas {
		if ownerOf(rv.EntityID) != faulty {
			writes = append(writes, rv)
		}
	}
	if len(writes) < 6 {
		t.Fatalf("%d deltas not owned by shard %d, want 6", len(writes), faulty)
	}

	dbs := make([]*core.DB, len(paths))
	jdirs := make([]string, len(paths))
	backends := make([]router.Backend, len(paths))
	shards := make([]router.Shard, len(paths))
	var inj *gapInjector
	for i := range paths {
		dbs[i], jdirs[i], backends[i] = journaledNode(t, paths[i], fmt.Sprintf("shard%d", i))
		shards[i] = router.Shard{Backend: backends[i], FirstEntity: ranges[i][0], LastEntity: ranges[i][len(ranges[i])-1]}
		if i == faulty {
			inj = &gapInjector{Backend: backends[i]}
			shards[i].Backend = inj
		}
	}
	reg := obs.NewRegistry()
	rt, err := router.New(shards, router.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	dirtyNodes := func() float64 { return reg.Gauge(router.MetricRouterDirtyShards, "").Value() }
	write := func(rv core.ReviewData) (*router.ReviewResult, error) {
		return rt.AddReview(context.Background(), server.ReviewRequest{
			ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
		})
	}
	journalRecords := func() []int {
		out := make([]int, len(jdirs))
		for i, dir := range jdirs {
			st, err := journal.StatDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = st.Records
		}
		return out
	}

	if res, err := write(writes[0]); err != nil || res.Partial {
		t.Fatalf("W0: %+v, %v", res, err)
	}
	inj.set(true, writes[1].ID)
	for _, rv := range writes[1:5] {
		res, err := write(rv)
		if err != nil {
			t.Fatalf("write %s: %v", rv.ID, err)
		}
		if got := journalRecords(); got[faulty] != 1 {
			t.Fatalf("after %s the dirty node journals %d records, want 1 (W0 only): it took a write out of fleet order", rv.ID, got[faulty])
		}
		if !res.Partial || len(res.Healed) != 0 || len(res.FailedNodes) != 1 || res.FailedNodes[0].Shard != faulty {
			t.Fatalf("write %s = %+v, want partial with only shard %d failed", rv.ID, res, faulty)
		}
	}
	if n := inj.forwardedWhileTripped(); n != 0 {
		t.Fatalf("the dirty node was sent %d writes after the one it missed", n)
	}
	if dirtyNodes() != 1 {
		t.Fatalf("dirty nodes = %v, want 1", dirtyNodes())
	}

	// A write owned by the range whose only replica is dirty is refused,
	// and nothing is journaled anywhere.
	before := journalRecords()
	owned := core.ReviewData{ID: "dirty-owner-1", EntityID: ranges[faulty][0], Reviewer: "u-dirty", Day: 3,
		Text: "The room was spotless and the staff were friendly."}
	_, err = write(owned)
	var se *router.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable || se.Shard != faulty {
		t.Fatalf("write owned by the dirty range: %v, want a 503 naming shard %d", err, faulty)
	}
	if after := journalRecords(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("a refused write was journaled: records %v → %v", before, after)
	}
	for i, db := range dbs {
		if db.HasReview(owned.ID) {
			t.Fatalf("node %d holds the refused write", i)
		}
	}

	// Released: the next write heals the node first, then reaches it.
	inj.set(false, "")
	res, err := write(writes[5])
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || len(res.Healed) != 1 || res.Healed[0] != faulty {
		t.Fatalf("healing write = %+v, want healed=[%d]", res, faulty)
	}
	if dirtyNodes() != 0 {
		t.Fatalf("dirty nodes after heal = %v", dirtyNodes())
	}
	applied := writes[:6]
	for seq := uint64(1); seq <= uint64(len(applied)); seq++ {
		healed, reference := journalStatusAt(t, backends[faulty], seq), journalStatusAt(t, backends[1], seq)
		if healed.HashSeq != seq || healed.PrefixHash != reference.PrefixHash {
			t.Fatalf("seq %d: healed node %+v, reference %+v", seq, healed, reference)
		}
	}

	twin, _, err := snapshot.Load(paths[faulty])
	if err != nil {
		t.Fatal(err)
	}
	for _, rv := range applied {
		if err := twin.ApplyReview(rv); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := harness.QueryFingerprint(d, twin)
	if got, _ := harness.QueryFingerprint(d, dbs[faulty]); got != want {
		t.Fatalf("healed node's live state diverges from an always-healthy twin:\n%s", firstDiff(want, got))
	}
	restarted, _, err := snapshot.Load(paths[faulty])
	if err != nil {
		t.Fatal(err)
	}
	st, err := journal.ApplyAll(restarted, jdirs[faulty])
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != len(applied) {
		t.Fatalf("restart replayed %d records, want %d", st.Applied, len(applied))
	}
	if got, _ := harness.QueryFingerprint(d, restarted); got != want {
		t.Fatalf("healed node's restart state diverges from an always-healthy twin:\n%s", firstDiff(want, got))
	}
}

// journalStatusAt asks a node for its journal prefix hash at seq.
func journalStatusAt(t *testing.T, b router.Backend, seq uint64) server.JournalStatusResponse {
	t.Helper()
	status, body, err := b.Do(context.Background(), "GET", fmt.Sprintf("/journal/status?at=%d", seq), nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("journal status at %d: status %d, err %v, body %s", seq, status, err, body)
	}
	var st server.JournalStatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// journaledNode serves one shard snapshot in process with a journal, as
// a node of a routed fleet, and returns its database, journal directory
// and backend.
func journaledNode(t *testing.T, path, name string) (*core.DB, string, router.Backend) {
	t.Helper()
	db, _, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	jdir := filepath.Join(t.TempDir(), "wal")
	j, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	ingest := server.JournaledIngest(j)
	ingest.AcceptUnowned = true
	return db, jdir, router.NewLocalBackend(name, db, server.Options{Ingest: ingest})
}

// replyDropper wraps a node's backend and fails the POST of one review:
// before it reaches the node, or — with commit set — after the node has
// journaled it, as a timeout after the node's commit would.
type replyDropper struct {
	router.Backend
	mu     sync.Mutex
	id     string
	commit bool
}

func (d *replyDropper) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	d.mu.Lock()
	id, commit := d.id, d.commit
	d.mu.Unlock()
	var req server.ReviewRequest
	if id == "" || method != http.MethodPost || target != "/reviews" || json.Unmarshal(body, &req) != nil || req.ID != id {
		return d.Backend.Do(ctx, method, target, body)
	}
	if commit {
		d.Backend.Do(ctx, method, target, body)
	}
	return 0, nil, fmt.Errorf("injected fault: %s lost the reply for %s", d.Name(), id)
}

func (d *replyDropper) set(id string, commit bool) {
	d.mu.Lock()
	d.id, d.commit = id, commit
	d.mu.Unlock()
}

// TestOwnerErrorTurnsDirty: an owner-hop call that errors may have landed,
// so the replica turns dirty until a repair pass proves its position.
// With one replica per range: a call that never reached the node is
// healed by the next write and the retry succeeds; a call that committed
// leaves the node ahead of every clean node, so it is refused, sent no
// write, and its range answers 503 rather than journal the record a
// second time at a later seq. With two replicas the hop fails over, and
// the replica whose reply was lost holds the write at the same seq as
// its peer, so the heal finds it level.
func TestOwnerErrorTurnsDirty(t *testing.T) {
	_, deltas, _ := ingestFixture(t)
	paths, ranges := planShards(t)
	var others []core.ReviewData
	for _, rv := range deltas {
		if rv.EntityID < ranges[0][0] || rv.EntityID > ranges[0][len(ranges[0])-1] {
			others = append(others, rv)
		}
	}
	if len(others) < 4 {
		t.Fatalf("%d deltas not owned by shard 0, want 4", len(others))
	}
	owned := func(id string) core.ReviewData {
		return core.ReviewData{ID: id, EntityID: ranges[0][0], Reviewer: "u-" + id, Day: 3,
			Text: "The room was spotless and the staff were friendly."}
	}

	t.Run("one replica", func(t *testing.T) {
		dbs := make([]*core.DB, len(paths))
		jdirs := make([]string, len(paths))
		shards := make([]router.Shard, len(paths))
		var drop *replyDropper
		for i := range paths {
			var b router.Backend
			dbs[i], jdirs[i], b = journaledNode(t, paths[i], fmt.Sprintf("shard%d", i))
			if i == 0 {
				drop = &replyDropper{Backend: b}
				b = drop
			}
			shards[i] = router.Shard{Backend: b, FirstEntity: ranges[i][0], LastEntity: ranges[i][len(ranges[i])-1]}
		}
		reg := obs.NewRegistry()
		rt, err := router.New(shards, router.Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		dirtyNodes := func() float64 { return reg.Gauge(router.MetricRouterDirtyShards, "").Value() }
		write := func(rv core.ReviewData) (*router.ReviewResult, error) {
			return rt.AddReview(context.Background(), server.ReviewRequest{
				ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
			})
		}
		records := func() string {
			out := make([]int, len(jdirs))
			for i, dir := range jdirs {
				st, err := journal.StatDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = st.Records
			}
			return fmt.Sprint(out)
		}
		if res, err := write(others[0]); err != nil || res.Partial {
			t.Fatalf("W0: %+v, %v", res, err)
		}

		// The call never reached the node: the next write finds it level.
		lost := owned("owner-lost")
		drop.set(lost.ID, false)
		if _, err := write(lost); err == nil {
			t.Fatal("a write whose owner call failed succeeded")
		}
		drop.set("", false)
		if dirtyNodes() != 1 || records() != "[1 1 1]" {
			t.Fatalf("after a lost owner call: dirty %v, records %s; want 1, [1 1 1]", dirtyNodes(), records())
		}
		if res, err := write(others[1]); err != nil || res.Partial || len(res.Healed) != 1 || res.Healed[0] != 0 {
			t.Fatalf("write after a lost owner call = %+v, %v; want healed=[0]", res, err)
		}
		if res, err := write(lost); err != nil || res.Partial {
			t.Fatalf("retry of the lost write = %+v, %v", res, err)
		}
		if dirtyNodes() != 0 || records() != "[3 3 3]" {
			t.Fatalf("after the retry: dirty %v, records %s; want 0, [3 3 3]", dirtyNodes(), records())
		}

		// The call committed on the node but errored: its journal holds a
		// record no other node has, so it is refused and stays dirty.
		orphan := owned("owner-orphan")
		drop.set(orphan.ID, true)
		if _, err := write(orphan); err == nil {
			t.Fatal("a write whose owner call failed succeeded")
		}
		drop.set("", false)
		if dirtyNodes() != 1 || records() != "[4 3 3]" {
			t.Fatalf("after a committed-then-failed owner call: dirty %v, records %s; want 1, [4 3 3]", dirtyNodes(), records())
		}
		report, err := rt.RunRepair(context.Background())
		if err != nil || report.Converged(0) || !strings.Contains(report.Nodes[0].Err, "ahead of the fleet") {
			t.Fatalf("RunRepair = %+v, %v; want shard 0 refused as ahead of the fleet", report, err)
		}
		res, err := write(others[2])
		if err != nil || !res.Partial || len(res.Healed) != 0 || len(res.FailedNodes) != 1 || res.FailedNodes[0].Shard != 0 {
			t.Fatalf("write after the orphaned commit = %+v, %v; want partial with only shard 0 failed", res, err)
		}
		var se *router.StatusError
		if _, err := write(orphan); !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable || se.Shard != 0 {
			t.Fatalf("retry of the orphaned write: %v, want a 503 naming shard 0", err)
		}
		if dirtyNodes() != 1 || records() != "[4 4 4]" {
			t.Fatalf("end: dirty %v, records %s; want 1, [4 4 4]", dirtyNodes(), records())
		}
		for i := 1; i < len(dbs); i++ {
			if dbs[i].HasReview(orphan.ID) {
				t.Fatalf("node %d holds the orphaned record", i)
			}
		}
	})

	t.Run("two replicas", func(t *testing.T) {
		shards := make([]router.Shard, len(paths))
		var r0, r1 router.Backend
		var drop *replyDropper
		for i := range paths {
			_, _, b := journaledNode(t, paths[i], fmt.Sprintf("shard%d", i))
			shards[i] = router.Shard{Backend: b, FirstEntity: ranges[i][0], LastEntity: ranges[i][len(ranges[i])-1]}
			if i == 0 {
				r0 = b
				drop = &replyDropper{Backend: b}
				shards[i].Backend = drop
				_, _, r1 = journaledNode(t, paths[i], "shard0.r1")
				shards[i].Replicas = []router.Backend{r1}
			}
		}
		rt, err := router.New(shards, router.Options{})
		if err != nil {
			t.Fatal(err)
		}
		write := func(rv core.ReviewData) (*router.ReviewResult, error) {
			return rt.AddReview(context.Background(), server.ReviewRequest{
				ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
			})
		}
		if res, err := write(others[0]); err != nil || res.Partial {
			t.Fatalf("W0: %+v, %v", res, err)
		}
		failover := owned("owner-failover")
		drop.set(failover.ID, true)
		res, err := write(failover)
		drop.set("", false)
		if err != nil || res.OwnerReplica != 1 || !res.Partial || len(res.FailedNodes) != 1 ||
			res.FailedNodes[0].Shard != 0 || res.FailedNodes[0].Replica != 0 || len(res.Healed) != 1 {
			t.Fatalf("failover write = %+v, %v; want replica 1 authoritative, replica 0 skipped and healed", res, err)
		}
		if res, err := write(others[1]); err != nil || res.Partial {
			t.Fatalf("write after the failover: %+v, %v", res, err)
		}
		for seq := uint64(1); seq <= 3; seq++ {
			a, b := journalStatusAt(t, r0, seq), journalStatusAt(t, r1, seq)
			if a.HashSeq != seq || a.PrefixHash != b.PrefixHash {
				t.Fatalf("seq %d: replica 0 %+v, replica 1 %+v", seq, a, b)
			}
		}
	})
}

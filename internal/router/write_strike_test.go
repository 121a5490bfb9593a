package router

// Strike-accounting audit of the write path: deliberate 4xx rejections
// (409 duplicate, 404 ghost entity) are valid answers from a healthy
// replica and must never count toward ejection — only transport
// failures and 5xx may strike, on the owner hop and on the replicate
// fan-out alike. A replica that rejects three duplicate retries in a
// row is doing its job; ejecting it would shed load from the healthiest
// node in the set.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/server"
)

// writeFixture builds a single-shard two-replica router owning the
// whole entity range. Repair passes reach the backends directly, so the
// write path is the only health-accounting actor.
func writeFixture(t *testing.T, primary, peer Backend) *Router {
	t.Helper()
	rt, err := New([]Shard{{
		Backend: primary, Replicas: []Backend{peer},
		FirstEntity: "h0000", LastEntity: "h9999",
	}}, Options{PickSeed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func postReview(rt *Router) (*ReviewResult, error) {
	return rt.AddReview(context.Background(), server.ReviewRequest{
		ID: "rv1", EntityID: "h0001", Reviewer: "u1", Day: 1, Text: "spotless room",
	})
}

// TestOwnerRejectionNeverStrikes: 409 dup and 404 ghost from the owner
// replica are deliberate answers — repeated rejections must leave the
// replica unstruck and in the pick.
func TestOwnerRejectionNeverStrikes(t *testing.T) {
	for _, status := range []int{409, 404} {
		owner := &fakeBackend{name: "r0", replies: map[string]fakeReply{
			"POST /reviews": {status: status, body: map[string]string{"error": "deliberate rejection"}},
		}}
		peer := &fakeBackend{name: "r1", replies: map[string]fakeReply{
			"POST /reviews": {status: 409, body: map[string]string{"error": "duplicate"}},
		}}
		rt := writeFixture(t, owner, peer)
		for i := 0; i < ejectAfterFailures+1; i++ {
			_, err := postReview(rt)
			var se *StatusError
			if !errors.As(err, &se) || se.Status != status {
				t.Fatalf("status %d: want StatusError passthrough, got %v", status, err)
			}
		}
		rep := rt.view.Load().reps[0][0]
		if got := rep.fails.Load(); got != 0 {
			t.Fatalf("owner answering %d took %d strikes — 4xx rejections must never strike", status, got)
		}
		if !rep.healthy(time.Now().UnixNano()) {
			t.Fatalf("owner answering %d was ejected", status)
		}
	}
}

// TestOwner5xxStrikesButStaysAuthoritative: a 5xx from the owner is
// still this write's authoritative outcome (no failover hop that could
// double-apply), but it must count as a health strike.
func TestOwner5xxStrikesButStaysAuthoritative(t *testing.T) {
	owner := &fakeBackend{name: "r0", replies: map[string]fakeReply{
		"POST /reviews": {status: 500, body: map[string]string{"error": "disk full"}},
	}}
	peer := &fakeBackend{name: "r1", replies: map[string]fakeReply{
		"POST /reviews": {status: 200, body: server.ReviewResponse{}},
	}}
	rt := writeFixture(t, owner, peer)
	_, err := postReview(rt)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != 500 || se.Replica != 0 {
		t.Fatalf("want the owner's 500 passed through (no failover), got %v", err)
	}
	if got := rt.view.Load().reps[0][0].fails.Load(); got != 1 {
		t.Fatalf("owner 500 recorded %d strikes, want 1", got)
	}
}

// TestReplicateFanOutStrikeAccounting: on the fan-out, a transport
// failure strikes, a 5xx strikes, and a 409 duplicate clears — mirrors
// the read path exactly.
func TestReplicateFanOutStrikeAccounting(t *testing.T) {
	okBody := server.ReviewResponse{}
	owner := &fakeBackend{name: "s0-r0", replies: map[string]fakeReply{
		"POST /reviews": {status: 200, body: okBody},
	}}
	dup := &fakeBackend{name: "s0-r1", replies: map[string]fakeReply{
		"POST /reviews": {status: 409, body: map[string]string{"error": "duplicate"}},
	}}
	down := &fakeBackend{name: "s1-r0", err: fmt.Errorf("connection refused")}
	broken := &fakeBackend{name: "s1-r1", replies: map[string]fakeReply{
		"POST /reviews": {status: 503, body: map[string]string{"error": "overloaded"}},
	}}
	rt, err := New([]Shard{
		{Backend: owner, Replicas: []Backend{dup}, FirstEntity: "h0000", LastEntity: "h4999"},
		{Backend: down, Replicas: []Backend{broken}, FirstEntity: "h5000", LastEntity: "h9999"},
	}, Options{PickSeed: 23})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-load a strike on the duplicate-answering replica: its 409 must
	// clear it, proving rejections reset health like any good answer.
	v := rt.view.Load()
	v.reps[0][1].fails.Store(1)

	res, err := postReview(rt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Replicated != 1 {
		t.Fatalf("result = %+v, want partial with 1 replicated (the 409 dup)", res)
	}
	if got := v.reps[0][1].fails.Load(); got != 0 {
		t.Fatalf("409 on fan-out left %d strikes, want 0 (and cleared)", got)
	}
	if got := v.reps[1][0].fails.Load(); got != 1 {
		t.Fatalf("transport failure on fan-out recorded %d strikes, want 1", got)
	}
	if got := v.reps[1][1].fails.Load(); got != 1 {
		t.Fatalf("503 on fan-out recorded %d strikes, want 1", got)
	}
}

// TestVolatileFleetKeepsNoDirtySet: an unjournaled fleet (every node
// answers 404 for /journal/status) has nothing to backfill from, so a
// node that missed a write must not be held out of later writes.
func TestVolatileFleetKeepsNoDirtySet(t *testing.T) {
	reply := map[string]fakeReply{"POST /reviews": {status: 200, body: server.ReviewResponse{}}}
	owner := &fakeBackend{name: "s0", replies: reply}
	flaky := &fakeBackend{name: "s1", replies: reply, err: fmt.Errorf("connection refused")}
	rt, err := New([]Shard{
		{Backend: owner, FirstEntity: "h0000", LastEntity: "h4999"},
		{Backend: flaky, FirstEntity: "h5000", LastEntity: "h9999"},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := postReview(rt); err != nil || !res.Partial {
		t.Fatalf("write with a node down = %+v, %v; want partial", res, err)
	}
	flaky.err = nil
	for i := 0; i < 2; i++ {
		res, err := postReview(rt)
		if err != nil || res.Partial || res.Replicated != 1 {
			t.Fatalf("write %d after the node came back = %+v, %v; want it replicated to the node", i, res, err)
		}
	}
	if got := rt.Metrics().Gauge(MetricRouterDirtyShards, "").Value(); got != 0 {
		t.Fatalf("dirty nodes = %v in a volatile fleet, want 0", got)
	}
}

package router

// Tracing-through-the-router tests: hedged legs are attributed on the
// winning and losing spans without error-retaining the trace, and the
// propagation headers carry one trace id from the router front door
// through a real HTTP scatter into the shard side.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// legSpans pulls the "router.leg" spans out of a trace export.
func legSpans(tr *trace.TraceJSON) []trace.SpanJSON {
	var legs []trace.SpanJSON
	for _, s := range tr.Spans {
		if s.Name == "router.leg" {
			legs = append(legs, s)
		}
	}
	return legs
}

func attr(s trace.SpanJSON, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestHedgedLegSpans: a hedged request produces one trace holding both
// legs — the winner stamped hedge_fired/hedge_won with its shard and
// replica, the cancelled loser marked cancelled with NO error — and the
// trace is kept as an ordinary sample, not error-retained, because a
// hedge loser being cancelled is the mechanism working, not a failure.
func TestHedgedLegSpans(t *testing.T) {
	col := trace.New(trace.Options{SampleRate: 1, SlowCutoff: time.Hour, Seed: 1})
	var calls atomic.Int64
	unblocked := make(chan struct{}, 2)
	rt := newReplicatedRouter(t, Options{PickSeed: 1, HedgeDelay: 2 * time.Millisecond, Trace: col},
		&orderedBackend{name: "r0", calls: &calls, unblocked: unblocked},
		&orderedBackend{name: "r1", calls: &calls, unblocked: unblocked})

	// The predicate's plan is already in the memo, so the backends' one
	// blocking call is a scatter leg, not the planning hop.
	rt.planStore("x", newShippedEntry([]byte(`{"predicate":"x","method":"w2v","terms":[{"attr":"a","marker":0}],"similarity":1,"gen":0}`)), true, 0)
	if _, err := rt.TopK(context.Background(), []string{"x"}, 1); err != nil {
		t.Fatalf("hedged topk: %v", err)
	}
	// The losing leg ends asynchronously after its cancel; wait for it so
	// the span assertions below are not racing the leg teardown.
	select {
	case <-unblocked:
	case <-time.After(2 * time.Second):
		t.Fatal("losing leg was never cancelled")
	}

	// The loser's span End and the post-End winner stamping land moments
	// after TopK returns; poll the live export until both legs are fully
	// attributed.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if tr := findHedgedTrace(col); tr != nil {
			assertHedgedTrace(t, tr)
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no fully-attributed hedged trace in %+v", col.Snapshot())
}

// findHedgedTrace returns the trace once it holds two finished legs,
// one of them stamped as the hedge winner.
func findHedgedTrace(col *trace.Collector) *trace.TraceJSON {
	for _, tr := range col.Snapshot() {
		legs := legSpans(&tr)
		if len(legs) != 2 {
			continue
		}
		done := 0
		won := false
		for _, leg := range legs {
			if !leg.InFlight {
				done++
			}
			if attr(leg, "hedge_won") == "true" {
				won = true
			}
		}
		if done == 2 && won {
			cp := tr
			return &cp
		}
	}
	return nil
}

func assertHedgedTrace(t *testing.T, tr *trace.TraceJSON) {
	t.Helper()
	if tr.Kept != "sampled" {
		t.Fatalf("hedged trace kept as %q — a cancelled loser must not error-retain", tr.Kept)
	}
	var winner, loser *trace.SpanJSON
	for i := range tr.Spans {
		s := &tr.Spans[i]
		if s.Name != "router.leg" {
			continue
		}
		if attr(*s, "hedge_won") == "true" {
			winner = s
		} else {
			loser = s
		}
	}
	if winner == nil || loser == nil {
		t.Fatalf("winner/loser legs not both present: %+v", tr.Spans)
	}
	if attr(*winner, "hedge_fired") != "true" {
		t.Errorf("winner missing hedge_fired: %+v", winner.Attrs)
	}
	if attr(*winner, "shard") == "" || attr(*winner, "replica") == "" {
		t.Errorf("winner missing shard/replica attribution: %+v", winner.Attrs)
	}
	if attr(*loser, "cancelled") != "true" {
		t.Errorf("loser not marked cancelled: %+v", loser.Attrs)
	}
	if loser.Error != "" {
		t.Errorf("cancelled loser carries error %q — cancellation is not failure", loser.Error)
	}
	// Both legs hang off the scatter span inside the same trace.
	names := map[string]bool{}
	for _, s := range tr.Spans {
		names[s.Name] = true
	}
	if !names["router.scatter"] {
		t.Errorf("trace lacks the scatter span: %v", names)
	}
}

// TestTraceHeaderRoundTripHTTPScatter: a request through the router's
// HTTP front door scatters over real HTTP to shard servers with their
// own collectors, and the SAME trace id shows up on both sides — the
// shard span parented at a router-side leg span.
func TestTraceHeaderRoundTripHTTPScatter(t *testing.T) {
	shardCol := trace.New(trace.Options{SampleRate: 1, SlowCutoff: time.Hour, Seed: 7})
	newShard := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx := trace.Extract(r.Context(), r.Header)
			_, sp := shardCol.Start(ctx, "server.topk")
			defer sp.End()
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"rows":[]}`))
		}))
	}
	s0, s1 := newShard(), newShard()
	defer s0.Close()
	defer s1.Close()

	routerCol := trace.New(trace.Options{SampleRate: 1, SlowCutoff: time.Hour, Seed: 3})
	rt, err := New([]Shard{
		{Backend: &HTTPBackend{BaseURL: s0.URL}},
		{Backend: &HTTPBackend{BaseURL: s1.URL}},
	}, Options{PickSeed: 1, DisableHedging: true, Trace: routerCol})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(NewHandler(rt))
	defer front.Close()

	resp, err := http.Get(front.URL + "/topk?predicate=x&k=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("front door answered %d", resp.StatusCode)
	}

	routed := routerCol.Snapshot()
	if len(routed) == 0 {
		t.Fatal("router collector kept nothing")
	}
	// The front-door span roots the trace; find it and its leg span ids.
	var traceID string
	legIDs := map[string]bool{}
	for _, tr := range routed {
		for _, s := range tr.Spans {
			if s.Name == "router.topk" {
				traceID = tr.TraceID
			}
		}
		for _, leg := range legSpans(&tr) {
			legIDs[leg.SpanID] = true
		}
	}
	if traceID == "" {
		t.Fatalf("no router.topk root span in %+v", routed)
	}

	shardSide, ok := shardCol.Get(traceID)
	if !ok {
		t.Fatalf("trace %s never reached the shard collector: %+v", traceID, shardCol.Snapshot())
	}
	found := false
	for _, s := range shardSide.Spans {
		if s.Name == "server.topk" && legIDs[s.ParentID] {
			found = true
		}
	}
	if !found {
		t.Fatalf("shard span not parented at a router leg span: shard=%+v legs=%v", shardSide.Spans, legIDs)
	}
}

package main

// Bench-side tracing. Spans are recorded only from this package, around
// the calls into each layer: `client` around the router handler,
// `router.leg` from the backend wrapper, `journal.append` from the
// append hooks and `journal.fsync` from the journal's sync observer.
// They stay in memory and are written out when the traced pass ends.
// The traced pass runs ONE sequential client, so "the leg open on node n"
// and "the append open on node n" identify a request unambiguously.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/router"
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer was created; Parent is 0 for a request's root span.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Node    int    `json:"node"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRef is what a request carries through its context.
type spanRef struct{ id, request int64 }

type spanKey struct{}

type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	legs    [shardCount]spanRef // the leg currently open on each node
	appends [shardCount]spanRef // the append currently open on each node
	reviews map[string]int64    // review id → request, set by the client
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), reviews: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// client opens a request's root span and returns the context to send
// the request with and the function that closes the span.
func (t *tracer) client(ctx context.Context, req *request) (context.Context, func()) {
	id := t.nextID.Add(1)
	ref := spanRef{id: id, request: id}
	if req.op == opReview {
		t.mu.Lock()
		t.reviews[req.review.ID] = id
		t.mu.Unlock()
	}
	start := t.now()
	return context.WithValue(ctx, spanKey{}, ref), func() {
		t.add(span{Name: "client", Start: start, End: t.now(), ID: id, Request: id, Node: -1})
	}
}

// legBackend records one `router.leg` span per backend call, parented
// by the span in the call's context.
type legBackend struct {
	router.Backend
	node int
	t    *tracer
}

func (b *legBackend) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	parent, traced := ctx.Value(spanKey{}).(spanRef)
	if !traced || !b.t.on.Load() {
		return b.Backend.Do(ctx, method, target, body)
	}
	ref := spanRef{id: b.t.nextID.Add(1), request: parent.request}
	b.t.mu.Lock()
	b.t.legs[b.node] = ref
	b.t.mu.Unlock()
	start := b.t.now()
	status, resp, err := b.Backend.Do(ctx, method, target, body)
	end := b.t.now()
	b.t.mu.Lock()
	b.t.legs[b.node] = spanRef{}
	b.t.spans = append(b.t.spans, span{Name: "router.leg", Start: start, End: end,
		ID: ref.id, Parent: parent.id, Request: ref.request, Node: b.node})
	b.t.mu.Unlock()
	return status, resp, err
}

// appendSpan wraps a journal append on node: the span's request comes
// from the review id, its parent is the leg open on the node.
func (t *tracer) appendSpan(node int, rvs []core.ReviewData, do func() (uint64, error)) (uint64, error) {
	if !t.on.Load() {
		return do()
	}
	ref := spanRef{id: t.nextID.Add(1)}
	t.mu.Lock()
	ref.request = t.reviews[rvs[0].ID]
	parent := t.legs[node]
	t.appends[node] = ref
	t.mu.Unlock()
	start := t.now()
	seq, err := do()
	end := t.now()
	t.mu.Lock()
	t.appends[node] = spanRef{}
	t.spans = append(t.spans, span{Name: "journal.append", Start: start, End: end,
		ID: ref.id, Parent: parent.id, Request: ref.request, Node: node})
	t.mu.Unlock()
	return seq, err
}

// fsync records a `journal.fsync` span that ended now and took d; the
// observer runs inside the append, so the open append is its parent.
func (t *tracer) fsync(node int, d time.Duration) {
	if !t.on.Load() {
		return
	}
	end := t.now()
	t.mu.Lock()
	parent := t.appends[node]
	t.spans = append(t.spans, span{Name: "journal.fsync", Start: end - int64(d), End: end,
		ID: t.nextID.Add(1), Parent: parent.id, Request: parent.request, Node: node})
	t.mu.Unlock()
}

// take returns the recorded spans and clears the tracer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children count
// once; a child's part outside its parent's interval counts nothing).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeTrace stores a traced pass's spans as JSON.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

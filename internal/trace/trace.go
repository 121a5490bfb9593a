// Package trace is a dependency-free request-scoped tracing layer in
// the spirit of internal/obs: no third-party imports, cheap on the hot
// path, and deterministic to test. A Trace is a tree of Spans sharing a
// trace id; the active Span rides in context.Context and crosses
// process boundaries via the X-Opinedb-Trace / X-Opinedb-Span headers,
// so a hedged read or a group-committed write shows up end-to-end — on
// the router AND on the shard replica — under one id.
//
// Completed traces land in a bounded per-process store with TAIL
// sampling: the keep/drop decision happens after the trace finishes,
// when its latency and error outcome are known. Traces that exceed the
// slow cutoff or contain an errored span are always retained;
// everything else is sampled probabilistically by a seeded RNG (so
// tests are deterministic, and so tracing never touches the router's
// own seeded replica-pick RNG — tracing must not perturb results).
// Retained ("slow"/"error") and sampled traces live in separate FIFO
// rings, so a burst of healthy traffic can never evict the one slow
// request an operator is chasing.
//
// The store is exposed as JSON at GET /debug/traces (?min_ms= and ?id=
// filters) — see Collector.TracesHandler and DebugMux.
package trace

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Propagation header contract. The router front door mints a trace id
// and every outbound hop forwards it; the span header carries the
// caller's span id so the receiving process parents its root correctly.
const (
	TraceHeader = "X-Opinedb-Trace"
	SpanHeader  = "X-Opinedb-Span"
)

// Options configure a Collector. The zero value is usable.
type Options struct {
	// Capacity bounds each ring (retained and sampled separately).
	// 0 means 256.
	Capacity int
	// SlowCutoff is the tail-sampling latency threshold: any trace whose
	// root span meets or exceeds it is always retained. 0 means 50ms.
	SlowCutoff time.Duration
	// SampleRate is the probability a fast, error-free trace is kept in
	// the sampled ring. 0 means 0.01; pass a negative rate for "never".
	SampleRate float64
	// Seed seeds the collector's private RNG (trace/span ids and the
	// sampling coin). 0 means 1.
	Seed int64
}

// Collector records spans for one process and applies tail sampling
// when a trace completes. A nil *Collector is valid everywhere: Start
// returns a nil Span, and nil Spans accept (and ignore) every method —
// tracing disabled costs two nil checks per call site.
type Collector struct {
	opts Options

	mu       sync.Mutex
	rng      *rand.Rand
	pending  map[string]*record // live traces, by id
	byID     map[string]*record // pending + kept, for ?id= lookup
	retained []*record          // slow/error traces, FIFO
	sampled  []*record          // probabilistic keeps, FIFO
	dropped  uint64             // finished traces the sampler discarded
}

// record is one trace's server-side state: every span this process
// recorded for the id, plus the retention outcome once finalized.
type record struct {
	id    string
	start time.Time
	roots int // in-flight root spans; finalize when the last one ends
	spans []*Span
	keep  string  // "", then "slow" | "error" | "sampled"
	durMS float64 // max root-span duration
}

// New builds a Collector.
func New(opts Options) *Collector {
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	if opts.SlowCutoff == 0 {
		opts.SlowCutoff = 50 * time.Millisecond
	}
	if opts.SampleRate == 0 {
		opts.SampleRate = 0.01
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &Collector{
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		pending: make(map[string]*record),
		byID:    make(map[string]*record),
	}
}

// Span is one timed operation inside a trace. Attrs may be set after
// End — the hedging state machine stamps won/lost attribution onto leg
// spans once the race resolves — and late writes still surface at
// /debug/traces because the store holds live pointers.
type Span struct {
	c   *Collector
	rec *record

	Trace  string
	ID     string
	Parent string
	Name   string

	start time.Time
	root  bool

	mu    sync.Mutex
	attrs []Attr
	err   string
	ended bool
	dur   time.Duration
}

// Attr is one key=value annotation, in insertion order.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

type ctxKey int

const (
	spanKey ctxKey = iota
	remoteKey
)

type remoteRef struct{ trace, span string }

// hexDigits for id rendering without fmt on the hot path.
const hexDigits = "0123456789abcdef"

// newIDLocked renders 16 hex chars from the collector RNG. Caller
// holds c.mu.
func (c *Collector) newIDLocked() string {
	v := c.rng.Uint64()
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Start opens a span named name. The parent is resolved in priority
// order: an in-process active span from the SAME collector (the usual
// child case), then a remote parent extracted from headers (this span
// becomes a process-local root of a cross-process trace), else a brand
// new trace id is minted. The returned context carries the new span for
// downstream Start/Inject calls.
func (c *Collector) Start(ctx context.Context, name string) (context.Context, *Span) {
	if c == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey).(*Span)
	if parent != nil && parent.c != c {
		parent = nil // foreign collector: fall back to header linkage
	}
	remote, _ := ctx.Value(remoteKey).(remoteRef)

	s := &Span{c: c, Name: name, start: time.Now()}
	c.mu.Lock()
	switch {
	case parent != nil:
		s.Trace, s.Parent, s.rec = parent.Trace, parent.ID, parent.rec
	case remote.trace != "":
		s.Trace, s.Parent, s.root = remote.trace, remote.span, true
	default:
		s.Trace, s.root = c.newIDLocked(), true
	}
	s.ID = c.newIDLocked()
	rec := s.rec
	if rec == nil {
		rec = c.pending[s.Trace]
		if rec == nil {
			rec = &record{id: s.Trace, start: s.start}
			c.pending[s.Trace] = rec
			c.byID[s.Trace] = rec
		}
		s.rec = rec
	}
	if s.root {
		rec.roots++
	}
	rec.spans = append(rec.spans, s)
	c.mu.Unlock()
	return context.WithValue(ctx, spanKey, s), s
}

// SetAttr annotates the span. Safe on nil spans and after End.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{key, value})
	s.mu.Unlock()
}

// SetError marks the span failed; any errored span forces the whole
// trace into the retained ring. Safe on nil spans.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	if msg == "" {
		msg = "error"
	}
	s.mu.Lock()
	s.err = msg
	s.mu.Unlock()
}

// End closes the span. When the last root span of a trace ends, the
// tail-sampling decision runs and the trace is kept or dropped.
// Idempotent; safe on nil spans.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	dur := s.dur
	s.mu.Unlock()
	if s.root {
		s.c.rootEnded(s.rec, dur)
	}
}

// rootEnded retires one root reference; the last one out finalizes the
// trace: errored → retained, slow → retained, else a seeded coin flip
// into the sampled ring or the void.
func (c *Collector) rootEnded(rec *record, dur time.Duration) {
	ms := float64(dur.Microseconds()) / 1000
	c.mu.Lock()
	defer c.mu.Unlock()
	if ms > rec.durMS {
		rec.durMS = ms
	}
	rec.roots--
	if rec.roots > 0 {
		return
	}
	delete(c.pending, rec.id)
	anyErr := false
	for _, sp := range rec.spans {
		sp.mu.Lock()
		if sp.err != "" {
			anyErr = true
		}
		sp.mu.Unlock()
		if anyErr {
			break
		}
	}
	switch {
	case anyErr:
		rec.keep = "error"
		c.push(&c.retained, rec)
	case rec.durMS >= float64(c.opts.SlowCutoff.Microseconds())/1000:
		rec.keep = "slow"
		c.push(&c.retained, rec)
	case c.opts.SampleRate > 0 && c.rng.Float64() < c.opts.SampleRate:
		rec.keep = "sampled"
		c.push(&c.sampled, rec)
	default:
		c.dropped++
		delete(c.byID, rec.id)
	}
}

// push appends rec to the ring, evicting the oldest entry past
// capacity. Caller holds c.mu.
func (c *Collector) push(ring *[]*record, rec *record) {
	*ring = append(*ring, rec)
	if len(*ring) > c.opts.Capacity {
		old := (*ring)[0]
		copy(*ring, (*ring)[1:])
		*ring = (*ring)[:len(*ring)-1]
		if c.byID[old.id] == old {
			delete(c.byID, old.id)
		}
	}
}

// ID returns the trace id carried by ctx — from the active span or a
// remote extract — or "". This is the log-correlation hook: slog lines
// tagged with ID(ctx) join logs to /debug/traces and to metric
// exemplars on one id.
func ID(ctx context.Context) string {
	if s, _ := ctx.Value(spanKey).(*Span); s != nil {
		return s.Trace
	}
	if r, _ := ctx.Value(remoteKey).(remoteRef); r.trace != "" {
		return r.trace
	}
	return ""
}

// Inject writes the propagation headers for the active span, if any.
func Inject(ctx context.Context, h http.Header) {
	if s, _ := ctx.Value(spanKey).(*Span); s != nil {
		h.Set(TraceHeader, s.Trace)
		h.Set(SpanHeader, s.ID)
	}
}

// Extract reads the propagation headers into ctx so the next Start in
// this process becomes a root span of the caller's trace. Collector-
// independent: extraction records only ids.
func Extract(ctx context.Context, h http.Header) context.Context {
	t := h.Get(TraceHeader)
	if t == "" {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, remoteRef{trace: t, span: h.Get(SpanHeader)})
}

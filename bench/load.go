package main

// The closed-loop load generator and its statistics: clientCount
// clients, each on its own keep-alive connection, each sending its next
// request only when the previous one has been answered.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// sliceLen cuts a measured window into slices (see sliceMedians).
const sliceLen = time.Second

// clientCount is fixed at the sandbox's two cores, not derived at run
// time, so a run on a larger machine measures the same offered load.
const clientCount = 2

// doer sends one request and returns the status and body.
type doer func(ctx context.Context, r *request) (int, []byte, error)

// httpDoer sends over one keep-alive connection to baseURL.
func httpDoer(baseURL string) (doer, func()) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	return func(ctx context.Context, r *request) (int, []byte, error) {
		var body io.Reader
		if r.body != nil {
			body = bytes.NewReader(r.body)
		}
		req, err := http.NewRequestWithContext(ctx, r.method, baseURL+r.target, body)
		if err != nil {
			return 0, nil, err
		}
		if r.body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}, tr.CloseIdleConnections
}

// memResponse is a minimal in-memory http.ResponseWriter.
type memResponse struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func (m *memResponse) Header() http.Header { return m.header }
func (m *memResponse) WriteHeader(c int) {
	if m.code == 0 {
		m.code = c
	}
}
func (m *memResponse) Write(b []byte) (int, error) {
	if m.code == 0 {
		m.code = http.StatusOK
	}
	return m.buf.Write(b)
}

// handlerDoer calls an http.Handler in process: no sockets.
func handlerDoer(h http.Handler) doer {
	return func(ctx context.Context, r *request) (int, []byte, error) {
		var body io.Reader
		if r.body != nil {
			body = bytes.NewReader(r.body)
		}
		req, err := http.NewRequestWithContext(ctx, r.method, r.target, body)
		if err != nil {
			return 0, nil, err
		}
		if r.body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := &memResponse{header: http.Header{}}
		h.ServeHTTP(rec, req)
		if rec.code == 0 {
			rec.code = http.StatusOK
		}
		return rec.code, rec.buf.Bytes(), nil
	}
}

// answered reports whether a response is a well-formed success for the
// request. Full answer equality is the correctness sample's job; under
// load only the cheap shape check runs, and a review ack must be durable.
func answered(r *request, status int, body []byte, err error) bool {
	if err != nil || status != http.StatusOK {
		return false
	}
	switch r.op {
	case opInterpret:
		return bytes.Contains(body, []byte(`"chosen"`))
	case opReview:
		var ack server.ReviewResponse
		return json.Unmarshal(body, &ack) == nil && ack.Durable && ack.ReviewID == r.review.ID
	default:
		return bytes.Contains(body, []byte(`"rows"`))
	}
}

// sample is one completed request; at is when it completed, from the
// window's start.
type sample struct {
	op  opKind
	dur time.Duration
	at  time.Duration
	ok  bool
}

// loadResult is one measured window.
type loadResult struct {
	samples   []sample
	acked     []string // ids of reviews acked durable
	preds     map[string]struct{}
	exhausted bool // a lane ran out of unseen cold texts
	cpuUser   float64
	cpuSys    float64
	// cpuMarks[i] is the process's CPU seconds i slices into the window.
	cpuMarks []float64
	mem0     runtime.MemStats
	mem1     runtime.MemStats
}

func cpuSeconds() (user, sys float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime)
}

// runLoad drives baseURL with one closed-loop client per stream for d.
// A client checks the clock before each request and lets the request in
// flight at the deadline finish, so no request is cut short and a write
// is never abandoned half replicated.
func runLoad(baseURL string, streams []*stream, d time.Duration) *loadResult {
	res := &loadResult{preds: map[string]struct{}{}}
	perClient := make([][]sample, len(streams))
	acked := make([][]string, len(streams))
	preds := make([]map[string]struct{}, len(streams))
	runtime.ReadMemStats(&res.mem0)
	u0, s0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(d)
	res.cpuMarks = []float64{u0 + s0}
	marked := make(chan struct{})
	go func() {
		defer close(marked)
		for next := start.Add(sliceLen); !next.After(deadline); next = next.Add(sliceLen) {
			time.Sleep(time.Until(next))
			u, s := cpuSeconds()
			res.cpuMarks = append(res.cpuMarks, u+s)
		}
	}()
	var wg sync.WaitGroup
	for c, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do, closeConn := httpDoer(baseURL)
			defer closeConn()
			preds[c] = map[string]struct{}{}
			for time.Now().Before(deadline) {
				r := st.next()
				t0 := time.Now()
				status, body, err := do(context.Background(), &r)
				dur := time.Since(t0)
				ok := answered(&r, status, body, err)
				perClient[c] = append(perClient[c], sample{op: r.op, dur: dur, at: time.Since(start), ok: ok})
				if r.op == opReview {
					if ok {
						acked[c] = append(acked[c], r.review.ID)
					}
				} else {
					preds[c][r.pred] = struct{}{}
				}
			}
		}()
	}
	wg.Wait()
	<-marked
	u1, s1 := cpuSeconds()
	res.cpuUser, res.cpuSys = u1-u0, s1-s0
	runtime.ReadMemStats(&res.mem1)
	for c, st := range streams {
		res.samples = append(res.samples, perClient[c]...)
		res.acked = append(res.acked, acked[c]...)
		for p := range preds[c] {
			res.preds[p] = struct{}{}
		}
		res.exhausted = res.exhausted || st.exhausted
	}
	return res
}

// percentile reads the q-quantile from sorted values by nearest rank:
// the smallest value with at least q of the sample at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 0.95*20 = 19.000000000000004 at rank 19.
	rank := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// opStats are one operation kind's successful latencies, in µs, sorted.
type opStats struct {
	micros []float64
	failed int
}

func (o *opStats) n() int              { return len(o.micros) }
func (o *opStats) p(q float64) float64 { return percentile(o.micros, q) }

// describe renders a percentile with the sample count behind it.
func (o *opStats) describe(q float64) string {
	return fmt.Sprintf("%.1f us (n=%d)", o.p(q), o.n())
}

// perOp splits samples by operation kind.
func perOp(samples []sample) [numOps]*opStats {
	var out [numOps]*opStats
	for op := range out {
		out[op] = &opStats{}
	}
	for _, s := range samples {
		if !s.ok {
			out[s.op].failed++
			continue
		}
		out[s.op].micros = append(out[s.op].micros, float64(s.dur.Nanoseconds())/1e3)
	}
	for _, o := range out {
		sort.Float64s(o.micros)
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

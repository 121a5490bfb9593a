package main

// Set-up and the end-to-end pass. Set-up builds the pristine fleet once
// per invocation; every pass then works on its own copy of it.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
)

const (
	// setupRounds is how often set-up runs per invocation; setup_s is the
	// median, so one slow round does not decide it.
	setupRounds = 2
	// preloadReviews are written through the router during set-up, so
	// every restart replays a journal and no workload starts on an empty
	// one.
	preloadReviews = 400
	// warmSeconds precede every measured window.
	warmSeconds = 2
	mib         = 1 << 20
)

// setupStats are one set-up round's stage timings.
type setupStats struct {
	total, build, save float64
	snapshotBytes      int64
}

// env is what set-up leaves behind for the passes.
type env struct {
	scratch  string // everything the benchmark writes lives under it
	seed     int64
	seconds  int
	vocab    *vocab
	db       *core.DB // the built database, before the preload
	ref      *monolith
	pristine string // the fleet directory the passes copy
	setup    setupStats
	rounds   []float64 // every set-up round's total, in run order
	copies   int
}

// setUp runs one full set-up into dir: generate → build → shard → save →
// start the fleet → preload through the router → stop.
func setUp(dir string, seed int64) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, db, err := buildDB()
	if err != nil {
		return nil, err
	}
	built := time.Now()
	_, snapshotBytes, err := writeFleet(db, dir)
	if err != nil {
		return nil, err
	}
	saved := time.Now()
	f, err := openFleet(dir, nil)
	if err != nil {
		return nil, err
	}
	v := newVocab(d)
	do := handlerDoer(f.handler)
	st := newStream(&preload, v, seed, lanePreload)
	for i := 0; i < preloadReviews; i++ {
		r := st.next()
		status, body, err := do(context.Background(), &r)
		if !answered(&r, status, body, err) {
			f.close()
			return nil, fmt.Errorf("preload review %s: status %d err %v: %s", r.review.ID, status, err, body)
		}
	}
	if err := f.close(); err != nil {
		return nil, err
	}
	return &env{seed: seed, vocab: v, db: db, pristine: dir, setup: setupStats{
		total: time.Since(t0).Seconds(), build: built.Sub(t0).Seconds(), save: saved.Sub(built).Seconds(),
		snapshotBytes: snapshotBytes,
	}}, nil
}

// setUpRounds runs set-up `rounds` times and keeps the last round's
// fleet and stage timings; the total it reports is the median round's
// (the mean of the middle two when rounds is even).
func setUpRounds(scratch string, seed int64, rounds int) (*env, error) {
	var e *env
	var totals []float64
	for i := 0; i < rounds; i++ {
		dir := filepath.Join(scratch, "pristine")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		e = nil
		runtime.GC() // the previous round's database is garbage now
		var err error
		if e, err = setUp(dir, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, e.setup.total)
	}
	sorted := append([]float64(nil), totals...)
	sort.Float64s(sorted)
	e.setup.total = (sorted[(rounds-1)/2] + sorted[rounds/2]) / 2
	e.scratch = scratch
	e.rounds = totals
	// The reference monolith takes the kept round's preload, in journal
	// order (every node journals the one fleet-wide order). This is the
	// benchmark's scaffolding, not the system's set-up: it is not timed.
	journal0 := journal.Dir(filepath.Join(e.pristine, fleetBase+"-shard0.snap"))
	if _, err := journal.ApplyAll(e.db, journal0); err != nil {
		return nil, fmt.Errorf("monolith preload: %w", err)
	}
	e.ref = newMonolith(e.db)
	return e, nil
}

// workCopy gives a pass its own copy of the pristine fleet.
func (e *env) workCopy() (string, error) {
	e.copies++
	dir := filepath.Join(e.scratch, fmt.Sprintf("work%d", e.copies))
	return dir, copyDir(e.pristine, dir)
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// passResult is what one pass over one workload produced.
type passResult struct {
	metrics   metrics
	attempted int
	failed    int
	notes     []string // human-readable lines: misses, sample counts
}

func (p *passResult) gate(name string, g gateResult) {
	p.attempted += g.attempted
	p.failed += g.failed
	p.notes = append(p.notes, fmt.Sprintf("gate %s: %d checks, %d failed", name, g.attempted, g.failed))
	p.notes = append(p.notes, g.misses...)
}

// restartRounds is how often a pass reopens its fleet; restart_s is the
// median round.
const restartRounds = 3

// restart reopens the fleet in dir `times` times and keeps the last one
// open. Each round is timed from opening the snapshots to the first
// correct answer over the front door; the median round is returned.
func (e *env) restart(dir string, tr *tracer, times int) (*fleet, float64, error) {
	probe := newStream(workloadByName("read_hot"), e.vocab, e.seed, laneGate).nextOf(opQuery)
	status, body, _ := e.ref.do(context.Background(), &probe)
	want, err := canonical(body)
	if err != nil || status != http.StatusOK {
		return nil, 0, fmt.Errorf("monolith probe: status %d: %v", status, err)
	}
	var rounds []float64
	for {
		t0 := time.Now()
		f, err := openFleet(dir, tr)
		if err != nil {
			return nil, 0, err
		}
		if err := f.firstAnswer(&probe, want); err != nil {
			f.close()
			return nil, 0, fmt.Errorf("first answer after restart: %w", err)
		}
		if rounds = append(rounds, time.Since(t0).Seconds()); len(rounds) == times {
			return f, median(rounds), nil
		}
		if err := f.close(); err != nil {
			return nil, 0, err
		}
	}
}

// firstAnswer opens the front door and requires the probe's answer over
// TCP to equal want, the monolith's canonical answer.
func (f *fleet) firstAnswer(probe *request, want []byte) error {
	if err := f.listen(); err != nil {
		return err
	}
	do, closeConn := httpDoer(f.url)
	defer closeConn()
	status, body, err := do(context.Background(), probe)
	if err != nil {
		return err
	}
	if got, err := canonical(body); status != http.StatusOK || err != nil || !bytes.Equal(got, want) {
		return fmt.Errorf("status %d, answer differs from the monolith's", status)
	}
	return nil
}

// mixWeighted is the workload's typical request latency at quantile q:
// the per-op quantiles averaged by the op shares of the mix. Unlike a
// quantile of the pooled sample it cannot land in the gap between two
// ops' latency modes, where a small shift moves it a long way.
func mixWeighted(w *workload, ops [numOps]*opStats, q float64) float64 {
	var sum, weight float64
	for op, share := range w.mix {
		if share > 0 && ops[op].n() > 0 {
			sum += float64(share) * ops[op].p(q)
			weight += float64(share)
		}
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// sliceMedians cuts the window into slices and reports throughput and
// CPU per op as the median slice, so a burst of outside noise shorter
// than half the window does not move them. (Latency percentiles are
// taken over the whole window: a tail must see every slice.)
func sliceMedians(load *loadResult, m metrics) (string, error) {
	slices := len(load.cpuMarks) - 1
	succeeded := make([]int, slices)
	for _, s := range load.samples {
		if i := int(s.at / sliceLen); i < slices && s.ok {
			succeeded[i]++
		}
	}
	var rate, cpu []float64
	for i, n := range succeeded {
		if n > 0 {
			rate = append(rate, float64(n)/sliceLen.Seconds())
			cpu = append(cpu, (load.cpuMarks[i+1]-load.cpuMarks[i])*1e3/float64(n))
		}
	}
	if len(rate) == 0 {
		return "", fmt.Errorf("no request succeeded")
	}
	m["ops_per_s"] = median(rate)
	m["cpu_ms_per_op"] = median(cpu)
	return fmt.Sprintf("per %v slice: ops/s %.0f, cpu ms/op %.3f", sliceLen, rate, cpu), nil
}

// runEndToEnd measures one workload with every bench wrapper off.
func (e *env) runEndToEnd(w *workload) (*passResult, error) {
	res := &passResult{metrics: metrics{"setup_s": e.setup.total}}
	dir, err := e.workCopy()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	before := liveHeap()
	f, restartS, err := e.restart(dir, nil, restartRounds)
	if err != nil {
		return nil, err
	}
	defer func() { f.close() }()
	res.metrics["restart_s"] = restartS
	res.metrics["heap_mb"] = (float64(liveHeap()) - float64(before)) / mib

	gateStream := newStream(w, e.vocab, e.seed, laneGate)
	res.gate("before", sameAnswers(f, e.ref, gateStream, gateSample))

	streams := []*stream{newStream(w, e.vocab, e.seed, laneClient0), newStream(w, e.vocab, e.seed, laneClient1)}
	warm := runLoad(f.url, streams, warmSeconds*time.Second)
	load := runLoad(f.url, streams, time.Duration(e.seconds)*time.Second)

	ops := perOp(load.samples)
	for op, o := range ops {
		res.failed += o.failed
		if o.n() > 0 {
			res.notes = append(res.notes, fmt.Sprintf("%s: p50 %s, p95 %s", opNames[op], o.describe(0.5), o.describe(0.95)))
		}
	}
	res.attempted += len(load.samples)
	if load.exhausted {
		return nil, fmt.Errorf("%s: a lane ran out of unseen cold texts; shorten the run", w.name)
	}
	slices, err := sliceMedians(load, res.metrics)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.notes = append(res.notes, slices)
	res.metrics["mix_p50_us"] = mixWeighted(w, ops, 0.5)
	res.metrics["mix_p95_us"] = mixWeighted(w, ops, 0.95)

	if w.mix[opReview] == 0 {
		res.gate("after", sameAnswers(f, e.ref, gateStream, gateSample))
		return res, nil
	}
	// Write workloads: restart from disk; every durable ack must be there.
	if err := f.close(); err != nil {
		return nil, err
	}
	if f, err = openFleet(dir, nil); err != nil {
		return nil, err
	}
	res.gate("durability", durable(f, append(warm.acked, load.acked...)))
	return res, nil
}

package main

// The per-layer pass: a measured window for the counters, the latency
// ladder, then the traced pass. Layer names are module names.

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/sqlparse"
)

const (
	// A rung (and the traced pass) measures its own slice of its lane:
	// rungRequests requests, or as many as fit in rungBudget.
	rungRequests = 1500
	rungBudget   = 1200 * time.Millisecond
	// overheadBudget bounds the wrappers off/on comparison.
	overheadBudget = 1500 * time.Millisecond
)

// rungStats are one rung's per-request latencies and allocation counts.
type rungStats struct {
	micros [numOps][]float64
	allocs [numOps][]float64
	reqs   []request
	failed int
}

func (s *rungStats) p50(op opKind) float64   { return median(s.micros[op]) }
func (s *rungStats) alloc(op opKind) float64 { return median(s.allocs[op]) }

// measureRung drives do with one sequential client over the stream's
// next slice. Mallocs are read around each request, outside its timed
// interval; on the TCP rungs they include the serving goroutines'.
func measureRung(do doer, st *stream, wrap func(context.Context, *request) (context.Context, func())) *rungStats {
	s := &rungStats{}
	// runtime/metrics reads the allocation count without stopping the
	// world, which ReadMemStats would do twice per request.
	mallocs := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	count := func() uint64 {
		rtmetrics.Read(mallocs)
		return mallocs[0].Value.Uint64()
	}
	deadline := time.Now().Add(rungBudget)
	for i := 0; i < rungRequests && time.Now().Before(deadline); i++ {
		r := st.next()
		ctx, end := context.Background(), func() {}
		m0 := count()
		if wrap != nil {
			ctx, end = wrap(ctx, &r)
		}
		t0 := time.Now()
		status, body, err := do(ctx, &r)
		dur := time.Since(t0)
		end()
		m1 := count()
		if !answered(&r, status, body, err) {
			s.failed++
			continue
		}
		s.micros[r.op] = append(s.micros[r.op], float64(dur.Nanoseconds())/1e3)
		s.allocs[r.op] = append(s.allocs[r.op], float64(m1-m0))
		s.reqs = append(s.reqs, r)
	}
	return s
}

// shardPicker sends reads round-robin over the shards and a review to
// its owner, as the authoritative (non-replica) write.
type shardPicker struct {
	f    *fleet
	next int
}

func (p *shardPicker) pick(r *request) int {
	if r.op == opReview {
		return p.f.owner(r.review.EntityID)
	}
	p.next++
	return p.next % shardCount
}

// coreRung calls core.DB directly on the shard databases and keeps the
// engine's own work counts.
type coreRung struct {
	pick     shardPicker
	methods  map[core.Method]int
	accesses int
	depth    int
	topks    int
	prepare  []float64
	apply    []float64
}

// okBody satisfies answered() for each op without a server behind it.
var okBody = [numOps][]byte{[]byte(`"rows"`), []byte(`"rows"`), []byte(`"chosen"`), nil}

func (c *coreRung) do(_ context.Context, r *request) (int, []byte, error) {
	db := c.pick.f.nodes[c.pick.pick(r)].db
	switch r.op {
	case opQuery:
		opts := core.DefaultQueryOptions()
		opts.TopK = resultK
		if _, err := db.QueryWithOptions(r.sql, opts); err != nil {
			return 0, nil, err
		}
	case opTopK:
		_, st, err := db.TopKThreshold([]string{r.pred}, resultK)
		if err != nil {
			return 0, nil, err
		}
		c.accesses += st.SortedAccesses
		c.depth += st.Depth
		c.topks++
	case opInterpret:
		c.methods[db.Interpret(r.pred).Method]++
	case opReview:
		rv := core.ReviewData{ID: r.review.ID, EntityID: r.review.EntityID, Reviewer: r.review.Reviewer, Day: r.review.Day, Text: r.review.Text}
		t0 := time.Now()
		p, err := db.PrepareReview(rv)
		t1 := time.Now()
		if err == nil {
			err = db.ApplyPrepared(p)
		}
		if err != nil {
			return 0, nil, err
		}
		c.prepare = append(c.prepare, float64(t1.Sub(t0).Nanoseconds())/1e3)
		c.apply = append(c.apply, float64(time.Since(t1).Nanoseconds())/1e3)
		// answered() wants a durable ack; the engine has no journal.
		return http.StatusOK, []byte(fmt.Sprintf(`{"review_id":%q,"durable":true}`, rv.ID)), nil
	}
	return http.StatusOK, okBody[r.op], nil
}

// ladder measures the same workload at every seam, outside-in: routed
// writes come first while the nodes still agree; the single-shard rungs
// below the router then write to one node only, which leaves this copy
// of the fleet diverged — it is thrown away afterwards.
func ladder(f *fleet, w *workload, v *vocab, seed int64, m metrics) (failed, attempted int, err error) {
	var shardURLs [shardCount]string
	shards := make([]router.Shard, shardCount)
	for i, n := range f.nodes {
		if shardURLs[i], err = f.serve(backendHandler(n.backend)); err != nil {
			return 0, 0, err
		}
		ms := f.manifest.Shard[i]
		shards[i] = router.Shard{Backend: &router.HTTPBackend{BaseURL: shardURLs[i]}, FirstEntity: ms.FirstEntity, LastEntity: ms.LastEntity}
	}
	httpRouter, err := router.New(shards, router.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		return 0, 0, err
	}
	httpRouterURL, err := f.serve(router.NewHandler(httpRouter))
	if err != nil {
		return 0, 0, err
	}

	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	overTCP := func(url string) doer {
		do, closeConn := httpDoer(url)
		closers = append(closers, closeConn)
		return do
	}
	var shardDoers [shardCount]doer
	for i, u := range shardURLs {
		shardDoers[i] = overTCP(u)
	}
	tcpPick, memPick := &shardPicker{f: f}, &shardPicker{f: f}
	cr := &coreRung{pick: shardPicker{f: f}, methods: map[core.Method]int{}}
	rungs := map[string]doer{
		"router_http": overTCP(httpRouterURL),
		"router_tcp":  overTCP(f.url),
		"router":      handlerDoer(f.handler),
		"server_tcp": func(ctx context.Context, r *request) (int, []byte, error) {
			return shardDoers[tcpPick.pick(r)](ctx, r)
		},
		"server": func(ctx context.Context, r *request) (int, []byte, error) {
			return f.nodes[memPick.pick(r)].backend.Do(ctx, r.method, r.target, r.body)
		},
		"core": cr.do,
	}

	// The second router's /interpret LRU starts empty; on the repeating
	// vocabulary fill it as warm-up filled the first router's.
	if !w.cold {
		for _, p := range v.hot {
			r := request{op: opInterpret, method: http.MethodGet, target: "/interpret?predicate=" + url.QueryEscape(p)}
			rungs["router_http"](context.Background(), &r)
		}
	}

	st := newStream(w, v, seed, laneLadder)
	stats := map[string]*rungStats{}
	for _, name := range rungNames {
		s := measureRung(rungs[name], st, nil)
		stats[name] = s
		failed += s.failed
		attempted += s.failed + len(s.reqs)
		for op, opName := range opNames {
			if len(s.micros[op]) > 0 {
				m["ladder."+name+"."+opName+"_p50_us"] = s.p50(opKind(op))
				m["ladder."+name+"."+opName+"_allocs"] = s.alloc(opKind(op))
			}
		}
	}
	if st.exhausted {
		return failed, attempted, fmt.Errorf("%s: the ladder lane ran out of unseen cold texts", w.name)
	}

	var hops []float64
	for op, opName := range opNames {
		if len(stats["server"].micros[op]) == 0 {
			continue
		}
		m["server."+opName+"_self_us"] = stats["server"].p50(opKind(op)) - stats["core"].p50(opKind(op))
		hops = append(hops, stats["server_tcp"].p50(opKind(op))-stats["server"].p50(opKind(op)))
	}
	if len(hops) > 0 {
		var sum float64
		for _, h := range hops {
			sum += h
		}
		m["tcp.hop_us"] = sum / float64(len(hops))
	}

	var parses []float64
	for _, r := range stats["core"].reqs {
		if r.op == opQuery {
			t0 := time.Now()
			if _, err := sqlparse.Parse(r.sql); err != nil {
				return failed, attempted, fmt.Errorf("sqlparse: %w", err)
			}
			parses = append(parses, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	if len(parses) > 0 {
		m["sqlparse.parse_p50_us"] = median(parses)
	}
	if n := cr.methods[core.MethodW2V] + cr.methods[core.MethodCooccur] + cr.methods[core.MethodFallback]; n > 0 {
		m["core.interpret_w2v_share"] = float64(cr.methods[core.MethodW2V]) / float64(n)
		m["core.interpret_cooccur_share"] = float64(cr.methods[core.MethodCooccur]) / float64(n)
		m["core.interpret_fallback_share"] = float64(cr.methods[core.MethodFallback]) / float64(n)
	}
	if cr.topks > 0 {
		m["core.topk_sorted_accesses"] = float64(cr.accesses) / float64(cr.topks)
		m["core.topk_depth"] = float64(cr.depth) / float64(cr.topks)
	}
	if len(cr.prepare) > 0 {
		m["core.prepare_p50_us"] = median(cr.prepare)
		m["core.apply_p50_us"] = median(cr.apply)
	}
	return failed, attempted, nil
}

// counters reads the registry series the window's deltas come from.
type counters struct {
	topkHits, topkMisses, interpHits, interpMisses, backpressure, hedges float64
	batchSum, batchCount, fsyncs                                         float64
}

func readCounters(reg *obs.Registry) counters {
	c := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
	batch := reg.Histogram(server.MetricCommitBatchSize, "")
	return counters{
		topkHits: c(server.MetricTopKMemoHits), topkMisses: c(server.MetricTopKMemoMisses),
		interpHits: c(router.MetricRouterInterpretHits), interpMisses: c(router.MetricRouterInterpretMisses),
		backpressure: c(server.MetricCommitBackpressureTotal), hedges: c(router.MetricRouterHedgesFired),
		batchSum: batch.Sum(), batchCount: float64(batch.Count()),
		fsyncs: float64(reg.Histogram(server.MetricFsyncSeconds, "").Count()),
	}
}

func ratio(part, rest float64) float64 {
	if part+rest == 0 {
		return 0
	}
	return part / (part + rest)
}

// window runs a warmed, shortened closed-loop window — the end-to-end
// shape, wrappers off — for the counters only a live fleet produces.
func window(f *fleet, w *workload, e *env, m metrics) (failed, attempted int, err error) {
	streams := []*stream{newStream(w, e.vocab, e.seed, laneClient0), newStream(w, e.vocab, e.seed, laneClient1)}
	runLoad(f.url, streams, warmSeconds*time.Second)
	c0 := readCounters(f.reg)
	bytes0, err := f.journalBytes()
	if err != nil {
		return 0, 0, err
	}
	load := runLoad(f.url, streams, time.Duration(e.seconds)*time.Second/2)
	c1 := readCounters(f.reg)
	bytes1, err := f.journalBytes()
	if err != nil {
		return 0, 0, err
	}
	if load.exhausted {
		return 0, 0, fmt.Errorf("%s: a lane ran out of unseen cold texts", w.name)
	}

	ops := perOp(load.samples)
	succeeded, maxUS := 0, 0.0
	for op, o := range ops {
		name := opNames[op]
		failed += o.failed
		succeeded += o.n()
		m["client.ops_"+name] = float64(o.n())
		if o.n() == 0 {
			continue
		}
		m["client."+name+"_p50_us"] = o.p(0.5)
		m["client."+name+"_p95_us"] = o.p(0.95)
		m["client."+name+"_p99_us"] = o.p(0.99)
		maxUS = max(maxUS, o.micros[o.n()-1])
	}
	attempted = len(load.samples)
	m["client.max_us"] = maxUS
	m["client.distinct_predicates"] = float64(len(load.preds))
	m["client.fail_ratio"] = float64(failed) / float64(max(attempted, 1))

	if w.mix[opTopK] > 0 {
		m["server.topk_memo_hit_ratio"] = ratio(c1.topkHits-c0.topkHits, c1.topkMisses-c0.topkMisses)
	}
	if w.mix[opInterpret] > 0 {
		m["router.interpret_cache_hit_ratio"] = ratio(c1.interpHits-c0.interpHits, c1.interpMisses-c0.interpMisses)
	}
	m["router.hedges_fired"] = c1.hedges - c0.hedges
	if writes := float64(ops[opReview].n()); writes > 0 {
		m["server.commit_batch_mean"] = (c1.batchSum - c0.batchSum) / max(c1.batchCount-c0.batchCount, 1)
		// Log-bucketed, over the fleet's life since restart (warm-up too).
		m["server.commit_wait_p50_us"] = f.reg.Histogram(server.MetricCommitWaitSeconds, "").Quantile(0.5) * 1e6
		m["server.backpressure_total"] = c1.backpressure - c0.backpressure
		m["journal.fsyncs_per_write"] = (c1.fsyncs - c0.fsyncs) / writes
		m["journal.bytes_per_write"] = float64(bytes1-bytes0) / writes
	}

	if succeeded > 0 {
		m["process.alloc_kb_per_op"] = float64(load.mem1.TotalAlloc-load.mem0.TotalAlloc) / 1024 / float64(succeeded)
		m["process.mallocs_per_op"] = float64(load.mem1.Mallocs-load.mem0.Mallocs) / float64(succeeded)
	}
	m["process.cpu_user_s"] = load.cpuUser
	m["process.cpu_sys_s"] = load.cpuSys
	m["process.gc_cycles"] = float64(load.mem1.NumGC - load.mem0.NumGC)
	m["process.gc_pause_ms"] = float64(load.mem1.PauseTotalNs-load.mem0.PauseTotalNs) / 1e6
	m["process.heap_end_mb"] = float64(load.mem1.HeapAlloc) / mib
	return failed, attempted, nil
}

// traced runs one sequential client against the router handler in
// process with the span wrappers on, and turns the spans into the
// router's and the journal's numbers.
func traced(f *fleet, tr *tracer, w *workload, e *env, m metrics) (spans []span, failed, attempted int) {
	do := handlerDoer(f.handler)
	st := newStream(w, e.vocab, e.seed, laneTrace)
	tr.on.Store(true)
	s := measureRung(do, st, tr.client)
	tr.on.Store(false)
	spans = tr.take()
	failed, attempted = s.failed, s.failed+len(s.reqs)

	self := selfTimes(spans)
	opOf := map[int64]opKind{} // request → op, in client-span order
	legs := map[int64][]span{}
	var clients []span
	for _, sp := range spans {
		switch sp.Name {
		case "client":
			clients = append(clients, sp)
		case "router.leg":
			legs[sp.Request] = append(legs[sp.Request], sp)
		}
	}
	// measureRung drops failed requests from reqs but their client spans
	// remain; with failures the op attribution would shift, so skip it.
	if s.failed > 0 || len(clients) != len(s.reqs) {
		return spans, failed, attempted
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i].Start < clients[j].Start })
	var routerSelf [numOps][]float64
	for i, c := range clients {
		opOf[c.Request] = s.reqs[i].op
		routerSelf[s.reqs[i].op] = append(routerSelf[s.reqs[i].op], float64(self[c.ID])/1e3)
	}
	for op, xs := range routerSelf {
		if len(xs) > 0 {
			m["router."+opNames[op]+"_self_us"] = median(xs)
		}
	}

	var legUS, straggle, ownerUS, replicateUS []float64
	for req, ls := range legs {
		sort.Slice(ls, func(i, j int) bool { return ls[i].Start < ls[j].Start })
		if opOf[req] == opReview {
			ownerUS = append(ownerUS, float64(ls[0].dur())/1e3)
			if rest := ls[1:]; len(rest) > 0 {
				end := rest[0].End
				for _, l := range rest {
					end = max(end, l.End)
				}
				replicateUS = append(replicateUS, float64(end-rest[0].Start)/1e3)
			}
			continue
		}
		durs := make([]float64, len(ls))
		for i, l := range ls {
			durs[i] = float64(l.dur()) / 1e3
		}
		legUS = append(legUS, durs...)
		if len(durs) == shardCount {
			sort.Float64s(durs)
			straggle = append(straggle, durs[len(durs)-1]/percentile(durs, 0.5))
		}
	}
	set := func(name string, xs []float64, q float64) {
		if len(xs) > 0 {
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			m[name] = percentile(s, q)
		}
	}
	set("router.leg_p50_us", legUS, 0.5)
	set("router.leg_slowest_over_median", straggle, 0.5)
	set("router.owner_hop_p50_us", ownerUS, 0.5)
	set("router.replicate_p50_us", replicateUS, 0.5)
	var appendUS, fsyncUS []float64
	for _, sp := range spans {
		switch sp.Name {
		case "journal.append":
			appendUS = append(appendUS, float64(sp.dur())/1e3)
		case "journal.fsync":
			fsyncUS = append(fsyncUS, float64(sp.dur())/1e3)
		}
	}
	set("journal.append_p50_us", appendUS, 0.5)
	set("journal.fsync_p50_us", fsyncUS, 0.5)
	set("journal.fsync_p95_us", fsyncUS, 0.95)
	return spans, failed, attempted
}

// traceOverhead alternates schedule blocks with the wrappers off and on
// against the in-process router and reports on/off as a ratio of the
// mix-weighted medians: how far the self-times above can be trusted.
func traceOverhead(f *fleet, tr *tracer, w *workload, e *env, m metrics) (failed, attempted int) {
	do := handlerDoer(f.handler)
	st := newStream(w, e.vocab, e.seed, laneOverhead)
	block := 0
	for _, share := range w.mix {
		block += share
	}
	var arms [2][]sample
	deadline := time.Now().Add(overheadBudget)
	for b := 0; time.Now().Before(deadline); b++ {
		on := b%2 == 1
		tr.on.Store(on)
		for i := 0; i < block; i++ {
			r := st.next()
			ctx, end := context.Background(), func() {}
			if on {
				ctx, end = tr.client(ctx, &r)
			}
			t0 := time.Now()
			status, body, err := do(ctx, &r)
			dur := time.Since(t0)
			end()
			ok := answered(&r, status, body, err)
			arms[b%2] = append(arms[b%2], sample{op: r.op, dur: dur, ok: ok})
			attempted++
			if !ok {
				failed++
			}
		}
	}
	tr.on.Store(false)
	tr.take()
	off, on := mixWeighted(w, perOp(arms[0]), 0.5), mixWeighted(w, perOp(arms[1]), 0.5)
	if off > 0 {
		m["bench.trace_overhead_ratio"] = on / off
	}
	return failed, attempted
}

// runLayers produces one workload's per-layer metrics.
func (e *env) runLayers(w *workload, traceDir string) (*passResult, error) {
	res := &passResult{metrics: metrics{
		"core.build_s":    e.setup.build,
		"snapshot.save_s": e.setup.save,
		"snapshot.mb":     float64(e.setup.snapshotBytes) / mib,
	}}
	m := res.metrics
	dir, err := e.workCopy()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	f, _, err := e.restart(dir, tr, 1)
	if err != nil {
		return nil, err
	}
	defer f.close()
	var load, replay time.Duration
	records := 0
	for _, n := range f.nodes {
		load += n.load
		replay += n.replay
		records += n.replayed
	}
	m["snapshot.load_s"] = load.Seconds()
	if records > 0 {
		m["journal.replay_us_per_record"] = float64(replay.Microseconds()) / float64(records)
	}

	count := func(failed, attempted int) {
		res.failed += failed
		res.attempted += attempted
	}
	failed, attempted, err := window(f, w, e, m)
	if err != nil {
		return nil, err
	}
	count(failed, attempted)

	// The traced pass and the overhead comparison route writes through
	// the whole fleet, so they run before the ladder diverges it.
	spans, failed, attempted := traced(f, tr, w, e, m)
	count(failed, attempted)
	count(traceOverhead(f, tr, w, e, m))
	if err := writeTrace(filepath.Join(traceDir, "trace-"+w.name+".json"), spans); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("traced pass: %d spans → %s", len(spans), filepath.Join(traceDir, "trace-"+w.name+".json")))

	failed, attempted, err = ladder(f, w, e.vocab, e.seed, m)
	if err != nil {
		return nil, err
	}
	count(failed, attempted)
	return res, nil
}

package server

// Shard-server observability: every request, engine stage, and journal
// interaction feeds a dependency-free obs.Registry that GET /metrics
// renders in the Prometheus text format. The registry is injectable
// (Options.Metrics) so a single-process fleet — the daemon's -router
// role, the harness's in-process deployments — can share one registry
// across the front door and every shard; label sets keep the series
// distinct. Instrument updates are single atomic ops, so the request
// path cost is negligible next to a query.

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Metric family names served by GET /metrics; the router (internal/
// router) adds its own opinedb_router_* families on top. Exported so
// operators, tests and the load harness address series by one shared
// vocabulary.
const (
	// MetricRequestSeconds: per-endpoint wall time, lock wait included —
	// labeled {endpoint="query"|"topk"|...}.
	MetricRequestSeconds = "opinedb_http_request_seconds"
	// MetricRequestsTotal: per-endpoint request counter.
	MetricRequestsTotal = "opinedb_http_requests_total"
	// MetricStageSeconds: engine/journal stage latency — labeled
	// {stage="engine_query"|"engine_topk"|"apply"|"journal_append"}.
	MetricStageSeconds = "opinedb_stage_seconds"
	// MetricFsyncSeconds: journal fsync latency (fed through
	// journal.Options.SyncObserver; see FsyncObserver).
	MetricFsyncSeconds = "opinedb_journal_fsync_seconds"
	// MetricTopKMemoHits / MetricTopKMemoMisses: /topk fragment memo
	// effectiveness.
	MetricTopKMemoHits   = "opinedb_topk_memo_hits_total"
	MetricTopKMemoMisses = "opinedb_topk_memo_misses_total"
	// MetricAppliedSeq: journal sequence of the last applied review.
	MetricAppliedSeq = "opinedb_journal_last_applied_seq"
	// MetricCommitBatchSize: how many staged writes each group commit
	// drained — 1 under light load, rising toward the queue depth as
	// concurrent writers pile up behind one fsync.
	MetricCommitBatchSize = "opinedb_commit_batch_size"
	// MetricCommitWaitSeconds: how long a write waited from staging until
	// its commit completed (fsync shared, delta applied, waiter woken).
	MetricCommitWaitSeconds = "opinedb_commit_wait_seconds"
	// MetricCommitQueueDepth: staged writes awaiting the next group
	// commit, sampled at every stage/drain transition.
	MetricCommitQueueDepth = "opinedb_commit_queue_depth"
	// MetricCommitBackpressureTotal: writes refused with 503 because the
	// commit queue was full.
	MetricCommitBackpressureTotal = "opinedb_commit_backpressure_total"
	// MetricPrefixChainDroppedTotal: times the in-memory prefix-hash
	// chain desynced and was dropped, degrading /journal/status probes to
	// on-disk segment scans until restart.
	MetricPrefixChainDroppedTotal = "opinedb_prefix_chain_dropped_total"
	// MetricPlanUsed / MetricPlanStale: shipped plan entries (plan.go) a
	// request used in place of a local interpretation, and entries it set
	// aside because their gen was not this node's applied sequence.
	MetricPlanUsed  = "opinedb_server_plan_used_total"
	MetricPlanStale = "opinedb_server_plan_stale_total"
	// MetricInterpretations: predicates this server resolved itself —
	// /plan, /interpret, and the /query and /topk predicates no shipped plan
	// entry covered — labeled by the Figure 5 stage that answered,
	// {method="w2v"|"cooccur"|"fallback"}, so "stage 2 fired" can be told
	// from "the hop was slow". Engine-memo hits count: the server still
	// resolved the predicate.
	MetricInterpretations = "opinedb_server_interpretations_total"
	// MetricQueryEntitiesScanned / MetricQueryDegrees: the /query engine's
	// own work (core.QueryStats) — entities the WHERE tree was evaluated
	// for and membership degrees computed — so a wide scan can be told
	// from a slow hop.
	MetricQueryEntitiesScanned = "opinedb_server_query_entities_scanned_total"
	MetricQueryDegrees         = "opinedb_server_query_degrees_total"
)

// metricEndpoints are the instrumented endpoint labels, fixed up front
// so every scrape exposes the full set (zeroed, not absent).
var metricEndpoints = []string{
	"healthz", "schema", "query", "interpret", "evidence", "topk", "plan",
	"reviews", "journal_status", "journal_records",
}

// serverMetrics holds the server's pre-resolved instruments so the
// request path never takes the registry lock.
type serverMetrics struct {
	reg            *obs.Registry
	requestSeconds map[string]*obs.Histogram
	requestsTotal  map[string]*obs.Counter
	engineQuery    *obs.Histogram
	engineTopK     *obs.Histogram
	apply          *obs.Histogram
	journalAppend  *obs.Histogram
	topkHits       *obs.Counter
	topkMisses     *obs.Counter
	appliedSeq     *obs.Gauge
	commitBatch    *obs.Histogram
	commitWait     *obs.Histogram
	queueDepth     *obs.Gauge
	backpressure   *obs.Counter
	chainDropped   *obs.Counter
	planUsed       *obs.Counter
	planStale      *obs.Counter
	interpreted    map[core.Method]*obs.Counter
	queryScanned   *obs.Counter
	queryDegrees   *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &serverMetrics{
		reg:            reg,
		requestSeconds: make(map[string]*obs.Histogram, len(metricEndpoints)),
		requestsTotal:  make(map[string]*obs.Counter, len(metricEndpoints)),
	}
	for _, ep := range metricEndpoints {
		m.requestSeconds[ep] = reg.Histogram(MetricRequestSeconds,
			"Per-endpoint request wall time in seconds (lock wait included).",
			obs.L("endpoint", ep))
		m.requestsTotal[ep] = reg.Counter(MetricRequestsTotal,
			"Requests served, by endpoint.", obs.L("endpoint", ep))
	}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram(MetricStageSeconds,
			"Engine and journal stage latency in seconds.", obs.L("stage", name))
	}
	m.engineQuery = stage("engine_query")
	m.engineTopK = stage("engine_topk")
	m.apply = stage("apply")
	m.journalAppend = stage("journal_append")
	m.topkHits = reg.Counter(MetricTopKMemoHits, "Topk fragment memo hits.")
	m.topkMisses = reg.Counter(MetricTopKMemoMisses, "Topk fragment memo misses.")
	m.appliedSeq = reg.Gauge(MetricAppliedSeq,
		"Journal sequence of the last review applied to the serving database.")
	m.commitBatch = reg.Histogram(MetricCommitBatchSize,
		"Writes drained per group commit (shared-fsync batch size).")
	m.commitWait = reg.Histogram(MetricCommitWaitSeconds,
		"Seconds a write waited from staging to commit completion.")
	m.queueDepth = reg.Gauge(MetricCommitQueueDepth,
		"Writes staged and awaiting the next group commit.")
	m.backpressure = reg.Counter(MetricCommitBackpressureTotal,
		"Writes refused with 503 because the commit queue was full.")
	m.chainDropped = reg.Counter(MetricPrefixChainDroppedTotal,
		"Prefix-hash chain desyncs; probes fall back to segment scans.")
	m.planUsed = reg.Counter(MetricPlanUsed,
		"Shipped plan entries used in place of a local interpretation.")
	m.planStale = reg.Counter(MetricPlanStale,
		"Shipped plan entries set aside: resolved at another journal sequence.")
	m.interpreted = make(map[core.Method]*obs.Counter, 3)
	for _, method := range []core.Method{core.MethodW2V, core.MethodCooccur, core.MethodFallback} {
		m.interpreted[method] = reg.Counter(MetricInterpretations,
			"Predicates this server interpreted itself, by the stage that answered.",
			obs.L("method", string(method)))
	}
	m.queryScanned = reg.Counter(MetricQueryEntitiesScanned,
		"Entities the /query engine evaluated the WHERE tree for.")
	m.queryDegrees = reg.Counter(MetricQueryDegrees,
		"Membership degrees the /query engine computed.")
	return m
}

// timed wraps a handler with the endpoint's counter and latency
// histogram. It sits outside read()'s lock acquisition on purpose: lock
// wait is exactly the latency a caller experiences, so it belongs in
// the histogram. With tracing enabled it is also the process's trace
// front door: the propagation headers are extracted and a root span
// opened before the handler runs, and the histogram observation carries
// the trace id as an exemplar so metrics and traces join on one id.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.requestSeconds[endpoint]
	total := s.metrics.requestsTotal[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		total.Inc()
		t0 := time.Now()
		if c := s.opts.Trace; c != nil {
			ctx := trace.Extract(r.Context(), r.Header)
			ctx, sp := c.Start(ctx, "server."+endpoint)
			sw := &statusWriter{ResponseWriter: w}
			h(sw, r.WithContext(ctx))
			sp.SetAttr("status", strconv.Itoa(sw.status()))
			if sw.status() >= http.StatusInternalServerError {
				sp.SetError(http.StatusText(sw.status()))
			}
			sp.End()
			hist.ObserveSinceWithExemplar(t0, sp.Trace)
			return
		}
		h(w, r)
		hist.ObserveSince(t0)
	}
}

// statusWriter captures the response status so the request span can be
// annotated (and error-marked on 5xx) after the handler returns.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (s *statusWriter) WriteHeader(c int) {
	if s.code == 0 {
		s.code = c
	}
	s.ResponseWriter.WriteHeader(c)
}

func (s *statusWriter) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.ResponseWriter.Write(p)
}

func (s *statusWriter) status() int {
	if s.code == 0 {
		return http.StatusOK
	}
	return s.code
}

// Metrics returns the registry backing GET /metrics — the daemon and
// the harness read it to wire cross-cutting observers (journal fsync)
// and to assert on series in tests.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// FsyncObserver returns a journal.Options.SyncObserver feeding reg's
// fsync-latency histogram. A helper rather than a server method because
// the journal is opened before the server exists.
func FsyncObserver(reg *obs.Registry) func(d time.Duration) {
	h := reg.Histogram(MetricFsyncSeconds, "Journal fsync latency in seconds.")
	return func(d time.Duration) { h.Observe(d.Seconds()) }
}

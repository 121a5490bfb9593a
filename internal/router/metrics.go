package router

// Front-door observability. The router feeds the same dependency-free
// registry (internal/obs) as the shard servers and serves it at GET
// /metrics: per-endpoint request histograms, the three routed-read
// stages (parse, scatter, merge), per-shard scatter round-trip latency
// (the series that shows a straggler shard), the predicate memo's
// /interpret and plan hit/miss counters, the planning step's latency,
// and the anti-entropy loop's repair
// counters plus per-shard replication lag. A single-process fleet can
// pass the same registry to the router and every shard
// (Options.Metrics); label sets keep the families distinct.

import (
	"strconv"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// Metric family names served by the router's GET /metrics, alongside
// the shard servers' opinedb_* families when the registry is shared.
const (
	// MetricRouterRequestSeconds / MetricRouterRequestsTotal: per-
	// endpoint front-door latency and volume — labeled
	// {endpoint="query"|"topk"|...}.
	MetricRouterRequestSeconds = "opinedb_router_request_seconds"
	MetricRouterRequestsTotal  = "opinedb_router_requests_total"
	// MetricRouterStageSeconds: routed-read stage latency — labeled
	// {stage="parse"|"scatter"|"merge"}.
	MetricRouterStageSeconds = "opinedb_router_stage_seconds"
	// MetricRouterShardSeconds: one shard's scatter round-trip — labeled
	// {shard="0"...}; the gap between a shard's p99 and its peers' is a
	// straggler.
	MetricRouterShardSeconds = "opinedb_router_shard_scatter_seconds"
	// MetricRouterInterpretHits / MetricRouterInterpretMisses: the
	// front-door /interpret memo cache (cache.go).
	MetricRouterInterpretHits   = "opinedb_router_interpret_cache_hits_total"
	MetricRouterInterpretMisses = "opinedb_router_interpret_cache_misses_total"
	// MetricRouterPlanHits / MetricRouterPlanMisses: predicates of routed
	// /query and /topk requests whose plan entry the memo held, and those
	// that needed a /plan hop (plan.go). MetricRouterPlanSeconds: the
	// planning step's wall time, hops included.
	MetricRouterPlanHits    = "opinedb_router_plan_cache_hits_total"
	MetricRouterPlanMisses  = "opinedb_router_plan_cache_misses_total"
	MetricRouterPlanSeconds = "opinedb_router_plan_seconds"
	// MetricRouterDirtyShards: nodes (flat node indexes; shards at R=1)
	// that missed a write and that no repair pass has converged yet —
	// they receive no writes but their backfill.
	MetricRouterDirtyShards = "opinedb_router_dirty_shards"
	// MetricRouterRepairPasses / MetricRouterRepairBackfilled:
	// anti-entropy passes run and records backfilled by them.
	MetricRouterRepairPasses     = "opinedb_router_repair_passes_total"
	MetricRouterRepairBackfilled = "opinedb_router_repair_backfilled_total"
	// MetricRouterRepairLag: per-node journal sequences behind the
	// repair reference after the last pass — labeled {shard,replica};
	// non-zero means the node did not converge.
	MetricRouterRepairLag = "opinedb_router_repair_lag"
	// MetricRouterReplicaSeconds: one replica's successful request-leg
	// latency — labeled {shard,replica}; a replica whose percentiles
	// drift from its set-mates' is degraded.
	MetricRouterReplicaSeconds = "opinedb_router_replica_seconds"
	// MetricRouterReplicaPicked: how often the load balancer picked each
	// replica — labeled {shard,replica}; a starved replica is ejected or
	// persistently loaded.
	MetricRouterReplicaPicked = "opinedb_router_replica_picked_total"
	// MetricRouterReplicaHedgeWins: hedge legs won, attributed to the
	// replica whose second leg beat the original — labeled
	// {shard,replica}.
	MetricRouterReplicaHedgeWins = "opinedb_router_replica_hedge_wins_total"
	// MetricRouterHedgesFired / MetricRouterHedgeWins: hedge legs
	// launched and hedge legs that beat the original.
	MetricRouterHedgesFired = "opinedb_router_hedges_fired_total"
	MetricRouterHedgeWins   = "opinedb_router_hedge_wins_total"
)

// routerEndpoints are the instrumented front-door endpoints, fixed up
// front so every scrape exposes the full set.
var routerEndpoints = []string{
	"healthz", "schema", "query", "interpret", "evidence", "topk",
	"reviews", "repair", "admin",
}

// routerMetrics pre-resolves the router's instruments so the request
// path never takes the registry lock. Per-replica series (leg latency,
// picks, hedge wins, repair lag) are NOT held here: each replica
// carries its own handles (replica.go), resolved by the replica*
// methods below when the replica is built — so a live-joined replica
// brings new series into the same families without the router keeping
// shard×replica arrays that a join would have to grow.
type routerMetrics struct {
	reg            *obs.Registry
	requestSeconds map[string]*obs.Histogram
	requestsTotal  map[string]*obs.Counter
	parse          *obs.Histogram
	scatter        *obs.Histogram
	merge          *obs.Histogram
	shardSeconds   []*obs.Histogram
	interpretHits  *obs.Counter
	interpretMiss  *obs.Counter
	planHits       *obs.Counter
	planMisses     *obs.Counter
	plan           *obs.Histogram
	dirtyShards    *obs.Gauge
	repairPasses   *obs.Counter
	repairBackfill *obs.Counter
	hedgeFired     *obs.Counter
	hedgeWins      *obs.Counter
}

// newRouterMetrics resolves the router's fixed instruments; shards is
// the range count (immutable — only replica sets grow and shrink).
func newRouterMetrics(reg *obs.Registry, shards int) *routerMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &routerMetrics{
		reg:            reg,
		requestSeconds: make(map[string]*obs.Histogram, len(routerEndpoints)),
		requestsTotal:  make(map[string]*obs.Counter, len(routerEndpoints)),
	}
	for _, ep := range routerEndpoints {
		m.requestSeconds[ep] = reg.Histogram(MetricRouterRequestSeconds,
			"Per-endpoint front-door request wall time in seconds.",
			obs.L("endpoint", ep))
		m.requestsTotal[ep] = reg.Counter(MetricRouterRequestsTotal,
			"Front-door requests served, by endpoint.", obs.L("endpoint", ep))
	}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram(MetricRouterStageSeconds,
			"Routed-read stage latency in seconds.", obs.L("stage", name))
	}
	m.parse = stage("parse")
	m.scatter = stage("scatter")
	m.merge = stage("merge")
	m.shardSeconds = make([]*obs.Histogram, shards)
	for i := 0; i < shards; i++ {
		m.shardSeconds[i] = reg.Histogram(MetricRouterShardSeconds,
			"One shard's scatter round-trip in seconds.",
			obs.L("shard", strconv.Itoa(i)))
	}
	m.hedgeFired = reg.Counter(MetricRouterHedgesFired,
		"Hedge legs launched against a second replica.")
	m.hedgeWins = reg.Counter(MetricRouterHedgeWins,
		"Hedge legs that beat the original leg.")
	m.interpretHits = reg.Counter(MetricRouterInterpretHits,
		"Front-door interpret memo cache hits.")
	m.interpretMiss = reg.Counter(MetricRouterInterpretMisses,
		"Front-door interpret memo cache misses.")
	m.planHits = reg.Counter(MetricRouterPlanHits,
		"Routed-read predicates whose plan entry the front-door memo held.")
	m.planMisses = reg.Counter(MetricRouterPlanMisses,
		"Routed-read predicates resolved with a /plan hop.")
	m.plan = reg.Histogram(MetricRouterPlanSeconds,
		"Routed-read planning step wall time in seconds, hops included.")
	m.dirtyShards = reg.Gauge(MetricRouterDirtyShards,
		"Nodes that missed a write and repair has not converged.")
	m.repairPasses = reg.Counter(MetricRouterRepairPasses,
		"Anti-entropy repair passes run.")
	m.repairBackfill = reg.Counter(MetricRouterRepairBackfilled,
		"Journal records backfilled by repair passes.")
	return m
}

// replicaLabels renders one node's {shard,replica} label pair.
func replicaLabels(shard, idx int) []obs.Label {
	return []obs.Label{obs.L("shard", strconv.Itoa(shard)), obs.L("replica", strconv.Itoa(idx))}
}

// replicaSeconds / replicaPicked / replicaHedgeWins / replicaRepairLag
// get-or-create one node's series; the registry returns the same
// instance for the same (shard, replica), so a joiner reusing a retired
// slot continues its series.
func (m *routerMetrics) replicaSeconds(shard, idx int) *obs.Histogram {
	return m.reg.Histogram(MetricRouterReplicaSeconds,
		"One replica's successful request-leg latency in seconds.",
		replicaLabels(shard, idx)...)
}

func (m *routerMetrics) replicaPicked(shard, idx int) *obs.Counter {
	return m.reg.Counter(MetricRouterReplicaPicked,
		"Load-balancer picks, by replica.", replicaLabels(shard, idx)...)
}

func (m *routerMetrics) replicaHedgeWins(shard, idx int) *obs.Counter {
	return m.reg.Counter(MetricRouterReplicaHedgeWins,
		"Hedge legs won, by the replica that served the winning leg.",
		replicaLabels(shard, idx)...)
}

func (m *routerMetrics) replicaRepairLag(shard, idx int) *obs.Gauge {
	return m.reg.Gauge(MetricRouterRepairLag,
		"Journal sequences behind the repair reference after the last pass.",
		replicaLabels(shard, idx)...)
}

// observeRepair folds one anti-entropy report into the repair families:
// the pass counter, the backfilled-record counter, and each probed
// node's lag behind the reference journal. nodes is the flat node list
// the report's indexes refer to (the view the pass ran against).
func (m *routerMetrics) observeRepair(report *fleet.RepairReport, nodes []*replica) {
	m.repairPasses.Inc()
	for _, n := range report.Nodes {
		if n.Backfilled > 0 {
			m.repairBackfill.Add(uint64(n.Backfilled))
		}
		if n.Index < 0 || n.Index >= len(nodes) {
			continue
		}
		lag := 0.0
		if report.ReferenceSeq > n.After {
			lag = float64(report.ReferenceSeq - n.After)
		}
		nodes[n.Index].repairLag.Set(lag)
	}
}

// Metrics returns the registry backing the router's GET /metrics, for
// the daemon, the load harness and tests.
func (r *Router) Metrics() *obs.Registry { return r.metrics.reg }

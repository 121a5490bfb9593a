// Package router is the scatter-gather query layer over a sharded
// OpineDB fleet. Each shard serves a contiguous range of the entity space
// (built by opinedbb -shards and described by a snapshot.Manifest); the
// router fans /query, /topk, /interpret and /evidence out to the shard
// backends, merges ranked results into the exact global answer, and
// degrades gracefully — partial results plus per-shard error reporting —
// when shards are down.
//
// Correctness contract: because every shard replicates the corpus-global
// model state and partitions only per-entity serving state (see
// core.ShardDB), a shard's scores carry the exact float bits the
// monolithic database produces. Merging the per-shard rankings under the
// engine's own ordering (score descending, entity id ascending) therefore
// reproduces the monolithic answer byte-for-byte — enforced end to end by
// internal/router/e2e_test.go over the full harness query fingerprint.
//
// The merge is a bounded k-way heap merge: O((k + s) log s) for k results
// over s shards, never a concatenate-and-sort — and it runs over the
// shards' answers as bytes (fragment.go): only the k winning rows are ever
// forwarded or decoded.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sqlparse"
	"repro/internal/trace"
)

// Backend executes one shard-API request (the HTTP JSON API of
// internal/server) and returns the status code and response body. The two
// implementations are HTTPBackend (a remote opinedbd replica) and
// LocalBackend (an in-process shard behind the same handler).
type Backend interface {
	// Name identifies the backend in error reports ("shard 2 @ :8082").
	Name() string
	// Do performs method on target (path + raw query, e.g. "/topk?k=5")
	// with an optional JSON body.
	Do(ctx context.Context, method, target string, body []byte) (status int, respBody []byte, err error)
}

// Shard pairs a replica set with the entity range it owns. The range
// bounds come from the shard manifest; they let the router route point
// lookups (/evidence) straight to the owner. Empty bounds disable
// targeted routing for that shard (the router falls back to
// scattering).
type Shard struct {
	// Backend is the range's primary (replica 0).
	Backend Backend
	// Replicas lists additional equivalent backends for the range; the
	// full replica set is [Backend, Replicas...]. Reads load-balance and
	// hedge across the set (replica.go); writes and repair reach every
	// member (write.go, repair.go).
	Replicas    []Backend
	FirstEntity string
	LastEntity  string
}

// set returns the shard's full replica set.
func (s Shard) set() []Backend {
	return append([]Backend{s.Backend}, s.Replicas...)
}

// Options configure a Router.
type Options struct {
	// Timeout bounds each scatter round-trip. 0 means 15s.
	Timeout time.Duration
	// DefaultTopK caps merged rankings when a request does not specify k.
	// 0 means 10, matching the engine and shard servers.
	DefaultTopK int
	// Metrics is the registry behind the front door's GET /metrics
	// (metrics.go). nil gets the router a private registry; a
	// single-process fleet passes one registry to the router and every
	// shard so one scrape covers both tiers.
	Metrics *obs.Registry
	// DisableHedging turns off hedged scatter legs (replica.go). Load
	// balancing and failover across replicas stay on; only the
	// latency-triggered second leg is suppressed — the deterministic arm
	// the replica tests pin picks with, and `opinedbd -no-hedge`.
	DisableHedging bool
	// HedgeDelay fixes the hedge delay instead of adapting it to each
	// shard's scatter-latency p95. 0 means adaptive.
	HedgeDelay time.Duration
	// PickSeed seeds the replica load-balancer's RNG so tests can pin
	// the power-of-two-choices sample sequence. 0 uses a random seed.
	PickSeed int64
	// EjectFor overrides how long a failing replica sits out of the
	// load-balanced pick. 0 means 2s.
	EjectFor time.Duration
	// Trace, when non-nil, records request-scoped spans — front door,
	// parse/scatter/merge, one child span per scatter leg with hedge
	// attribution, the write path, repair and join phases — and serves
	// GET /debug/traces on the handler. nil disables tracing at zero
	// cost. The collector's sampler uses its own seeded RNG, never the
	// router's pick RNG, so tracing cannot perturb replica selection or
	// results.
	Trace *trace.Collector
}

// ErrBadQuery marks client-side query errors — unparseable SQL or a
// query shape the router cannot merge — as opposed to fleet failures.
// The HTTP handler maps it to 400; everything else to 502.
var ErrBadQuery = errors.New("router: bad query")

// Router scatters queries over shard backends and gathers exact merged
// answers. Safe for concurrent use.
type Router struct {
	shards   []Shard
	timeout  time.Duration
	defaultK int
	// view is the current fleet topology (admin.go): per-shard replica
	// sets plus the same set flattened in shard-major node order. Reads
	// load it once per operation; AdmitReplica/RetireReplica swap in a
	// fresh view under writeMu, so the pick hot path never takes a lock
	// to see the fleet and a mid-flight request keeps a consistent
	// topology.
	view atomic.Pointer[fleetView]
	// pickRng drives power-of-two-choices sampling (replica.go), guarded
	// by pickMu — the pick is two Intn calls, never worth a sharded RNG.
	pickMu  sync.Mutex
	pickRng *rand.Rand
	// hedge/hedgeDelay/ejectFor resolve the Options knobs.
	hedge      bool
	hedgeDelay time.Duration
	ejectFor   time.Duration
	// writeMu serializes routed writes into one fleet-wide total order
	// (see write.go). Repair passes and the dirty set below are guarded
	// by it too: repair must not interleave with writes.
	writeMu sync.Mutex
	// dirty holds the flat node indexes that missed a write and that
	// repair has not yet converged; they receive no writes but their
	// backfill (repair.go). volatile is set once a pass finds the fleet
	// unjournaled, which keeps the dirty set empty.
	dirty    map[int]bool
	volatile bool
	// memoMu guards the front door's predicate memo (cache.go): /interpret
	// answers and shipped plan entries under one LRU; memoGen is the
	// generation that retires write-sensitive entries and fences stale
	// fills.
	memoMu  sync.Mutex
	memo    *lru.Cache[string, memoEntry]
	memoGen uint64
	// metrics backs GET /metrics (metrics.go).
	metrics *routerMetrics
	// tracer records request-scoped spans; nil disables tracing.
	tracer *trace.Collector
}

// New builds a router over the given shards (ordered by shard index).
func New(shards []Shard, opts Options) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("router: no shards")
	}
	for i, s := range shards {
		if s.Backend == nil {
			return nil, fmt.Errorf("router: shard %d has no backend", i)
		}
		for j, b := range s.Replicas {
			if b == nil {
				return nil, fmt.Errorf("router: shard %d replica %d has no backend", i, j+1)
			}
		}
	}
	t := opts.Timeout
	if t <= 0 {
		t = 15 * time.Second
	}
	k := opts.DefaultTopK
	if k <= 0 {
		k = 10
	}
	ejectFor := opts.EjectFor
	if ejectFor <= 0 {
		ejectFor = defaultEjectFor
	}
	pickSeed := opts.PickSeed
	if pickSeed == 0 {
		pickSeed = time.Now().UnixNano()
	}
	r := &Router{
		shards:     append([]Shard(nil), shards...),
		timeout:    t,
		defaultK:   k,
		pickRng:    rand.New(rand.NewSource(pickSeed)),
		hedge:      !opts.DisableHedging,
		hedgeDelay: opts.HedgeDelay,
		ejectFor:   ejectFor,
		dirty:      map[int]bool{},
		memo:       lru.New[string, memoEntry](maxInterpretCacheEntries),
		tracer:     opts.Trace,
	}
	r.metrics = newRouterMetrics(opts.Metrics, len(shards))
	v := &fleetView{}
	for i, s := range shards {
		set := make([]*replica, 0, 1+len(s.Replicas))
		for j, b := range s.set() {
			set = append(set, r.newReplica(i, j, b))
		}
		v.reps = append(v.reps, set)
		v.nodes = append(v.nodes, set...)
	}
	r.view.Store(v)
	return r, nil
}

// newReplica builds one node's balancing state with its per-replica
// instruments pre-resolved (the registry get-or-creates, so a joiner
// taking a retired replica's (shard, idx) slot shares its series).
func (r *Router) newReplica(shard, idx int, b Backend) *replica {
	return &replica{
		backend:   b,
		shard:     shard,
		idx:       idx,
		seconds:   r.metrics.replicaSeconds(shard, idx),
		picked:    r.metrics.replicaPicked(shard, idx),
		hedgeWins: r.metrics.replicaHedgeWins(shard, idx),
		repairLag: r.metrics.replicaRepairLag(shard, idx),
	}
}

// NumShards returns the number of shard ranges.
func (r *Router) NumShards() int { return len(r.shards) }

// NumNodes returns the fleet's total backend count — every replica of
// every shard — under the current view.
func (r *Router) NumNodes() int { return len(r.view.Load().nodes) }

// shardReply is one shard fragment's raw outcome.
type shardReply struct {
	status int
	body   []byte
	err    error
	// replica is the replica index that produced the reply; -1 for a
	// synthetic reply (every leg failed, or the context died).
	replica int
	// fails carries per-replica attribution when more than one leg
	// failed behind this reply.
	fails []NodeError
	// span is the leg's trace span (nil when tracing is off). The
	// hedging state machine stamps won/lost attribution onto it after
	// the race resolves — attrs may be set post-End by design.
	span *trace.Span
}

// scatter fans one request out to every shard concurrently; each
// fragment is served by the shard's replica set with load balancing,
// failover and hedging (shardRequest, replica.go). The whole fan-out
// lands in the scatter-stage histogram and each shard's fragment in its
// own per-shard series — the same series the adaptive hedge delay reads
// its p95 from — so a straggler shard is visible as the gap between its
// percentiles and its peers'.
func (r *Router) scatter(ctx context.Context, method, target string, body []byte) []shardReply {
	ctx, span := r.tracer.Start(ctx, "router.scatter")
	span.SetAttr("shards", fmt.Sprintf("%d", len(r.shards)))
	defer span.End()
	ctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	start := time.Now()
	replies := make([]shardReply, len(r.shards))
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			replies[i] = r.shardRequest(ctx, i, method, target, body)
			r.metrics.shardSeconds[i].ObserveSince(t0)
		}(i)
	}
	wg.Wait()
	r.metrics.scatter.ObserveSince(start)
	return replies
}

// replyError renders a shard reply as an error string, or "" for success.
func replyError(rep shardReply) string {
	if rep.err != nil {
		return rep.err.Error()
	}
	if rep.status != 200 {
		var env struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(rep.body, &env) == nil && env.Error != "" {
			return fmt.Sprintf("status %d: %s", rep.status, env.Error)
		}
		return fmt.Sprintf("status %d", rep.status)
	}
	return ""
}

// merged is a scatter's answer before anyone decodes it: the k winning
// rows as the byte spans their shards wrote (fragment.go), the first live
// leg's raw /query diagnostics, /topk's summed counters, and who failed.
// The HTTP handlers splice it into the response; the typed API decodes
// that same rendering.
type merged struct {
	rows [][]byte
	// Interpretation is a function of replicated global state, so any
	// shard's rewritten and interpretations are the fleet's.
	rewritten, interpretations []byte
	// Work statistics are summed over shards (depth takes the deepest).
	sortedAccesses, depth, candidates int
	errs                              map[int]string
	nodeErrs                          []NodeError
	elapsedMs                         float64
}

// gather walks every successful reply, records per-shard error strings
// keyed by shard index plus the replica-attributed failure list, and merges
// the live fragments' rows into the global top k. A reply the walker
// rejects is that shard's failure, not the request's.
func (r *Router) gather(ctx context.Context, op string, replies []shardReply, k int) (*merged, error) {
	m := &merged{errs: map[int]string{}}
	lists := make([][]rowSpan, 0, len(replies))
	// One backing array for every leg's rows, sized for the usual k; a
	// larger (client-chosen) k grows it.
	rows := make([]rowSpan, 0, len(replies)*min(k, 16))
	for i, rep := range replies {
		if msg := replyError(rep); msg != "" {
			m.errs[i] = msg
			m.nodeErrs = append(m.nodeErrs, r.nodeFailures(i, rep)...)
			continue
		}
		var f fragment
		var err error
		if f, rows, err = scanFragment(rep.body, rows); err != nil {
			m.errs[i] = fmt.Sprintf("bad response: %v", err)
			m.nodeErrs = append(m.nodeErrs, NodeError{
				Shard: i, Replica: rep.replica,
				Backend: r.backendName(i, rep.replica),
				Error:   m.errs[i],
			})
			continue
		}
		if len(lists) == 0 {
			m.rewritten, m.interpretations = f.rewritten, f.interpretations
		}
		lists = append(lists, f.rows)
		m.sortedAccesses += f.sortedAccesses
		m.candidates += f.candidates
		m.depth = max(m.depth, f.depth)
	}
	if len(lists) == 0 {
		return nil, r.errAllShardsFailed(op, replies, m.errs)
	}
	mergeStart := time.Now()
	_, mergeSpan := r.tracer.Start(ctx, "router.merge")
	m.rows = mergeRows(lists, k)
	mergeSpan.End()
	r.metrics.merge.ObserveSince(mergeStart)
	return m, nil
}

// appendRows appends the rows member (no leading comma).
func (m *merged) appendRows(b []byte) []byte {
	b = append(b, `"rows":[`...)
	for i, row := range m.rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, row...)
	}
	return append(b, ']')
}

// appendTail appends what both answers end in: the failure report, only
// when a shard failed and then by encoding/json — it is cold — and the
// elapsed time.
func (m *merged) appendTail(b []byte) []byte {
	if len(m.errs) > 0 {
		b = append(b, `,"partial":true,"shard_errors":`...)
		b = appendCold(b, m.errs)
		if len(m.nodeErrs) > 0 {
			b = append(b, `,"failed_nodes":`...)
			b = appendCold(b, m.nodeErrs)
		}
	}
	b = append(b, `,"elapsed_ms":`...)
	b, _ = server.AppendFloat(b, m.elapsedMs) // a duration: always finite
	return append(b, "}\n"...)
}

// appendCold appends v as the response encoder always has: encoding/json,
// HTML escaping off.
func appendCold(b []byte, v interface{}) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // maps of strings and plain structs: cannot fail
	return append(b, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
}

// size bounds the rendered answer when no shard failed.
func (m *merged) size() int {
	n := 160 + len(m.rewritten) + len(m.interpretations)
	for _, row := range m.rows {
		n += len(row) + 1
	}
	return n
}

// appendQuery renders the /query answer: QueryResult's JSON.
func (m *merged) appendQuery(b []byte) []byte {
	b = append(b, `{"rewritten":`...)
	b = append(b, orElse(m.rewritten, `""`)...)
	b = append(b, `,"interpretations":`...)
	b = append(b, orElse(m.interpretations, "null")...)
	b = append(b, ',')
	return m.appendTail(m.appendRows(b))
}

// appendTopK renders the /topk answer: TopKResult's JSON.
func (m *merged) appendTopK(b []byte) []byte {
	b = m.appendRows(append(b, '{'))
	b = append(b, `,"sorted_accesses":`...)
	b = strconv.AppendInt(b, int64(m.sortedAccesses), 10)
	b = append(b, `,"depth":`...)
	b = strconv.AppendInt(b, int64(m.depth), 10)
	b = append(b, `,"candidates":`...)
	b = strconv.AppendInt(b, int64(m.candidates), 10)
	return m.appendTail(b)
}

// orElse is raw, or the value an absent field encodes as.
func orElse(raw []byte, absent string) []byte {
	if raw == nil {
		return []byte(absent)
	}
	return raw
}

// ---- merged endpoint results ----

// QueryResult is the router's merged /query answer.
type QueryResult struct {
	Rewritten       string                               `json:"rewritten"`
	Interpretations map[string]server.InterpretationJSON `json:"interpretations"`
	Rows            []server.RowJSON                     `json:"rows"`
	// Partial is true when at least one shard failed; Rows then covers
	// only the live shards' entity ranges.
	Partial bool `json:"partial,omitempty"`
	// ShardErrors maps failed shard index → error description.
	ShardErrors map[int]string `json:"shard_errors,omitempty"`
	// FailedNodes attributes each failed request leg to the exact
	// replica behind it, so a dead replica is distinguishable from a
	// dead range.
	FailedNodes []NodeError `json:"failed_nodes,omitempty"`
	ElapsedMs   float64     `json:"elapsed_ms"`
}

// TopKResult is the router's merged /topk answer. Work statistics are
// summed over shards (Depth takes the deepest shard) — they describe the
// fleet's total effort, not any single TA run.
type TopKResult struct {
	Rows           []server.RowJSON `json:"rows"`
	SortedAccesses int              `json:"sorted_accesses"`
	Depth          int              `json:"depth"`
	Candidates     int              `json:"candidates"`
	Partial        bool             `json:"partial,omitempty"`
	ShardErrors    map[int]string   `json:"shard_errors,omitempty"`
	FailedNodes    []NodeError      `json:"failed_nodes,omitempty"`
	ElapsedMs      float64          `json:"elapsed_ms"`
}

// errAllShardsFailed renders a total scatter failure. When every shard
// answered with a client-error status (shards replicate the same engine,
// so a deterministic rejection is unanimous), the error is classified as
// ErrBadQuery and the handler returns the 400 a monolith would — 502 is
// reserved for actual fleet failures.
func (r *Router) errAllShardsFailed(op string, replies []shardReply, errs map[int]string) error {
	parts := make([]string, 0, len(errs))
	for i := 0; i < len(r.shards); i++ {
		if msg, ok := errs[i]; ok {
			parts = append(parts, fmt.Sprintf("shard %d (%s): %s", i, r.shards[i].Backend.Name(), msg))
		}
	}
	detail := strings.Join(parts, "; ")
	allClientErr := len(replies) > 0
	for _, rep := range replies {
		if rep.err != nil || rep.status < 400 || rep.status >= 500 {
			allClientErr = false
			break
		}
	}
	if allClientErr {
		return fmt.Errorf("%w: rejected by every shard: %s", ErrBadQuery, detail)
	}
	return fmt.Errorf("router: %s failed on every shard: %s", op, detail)
}

// Query scatters a subjective SQL query and merges the per-shard rankings
// into the exact global top k, mirroring the engine's limit semantics (an
// explicit SQL LIMIT wins over the request's k). Its predicates are
// interpreted once and shipped with the scatter (plan.go). The query is
// parsed up front: unparseable SQL fails here exactly as it would on every shard,
// and ORDER BY is rejected — shards return (entity, score) rows without
// the ordering column, so an objective ordering cannot be merged
// correctly at this layer.
func (r *Router) Query(ctx context.Context, sql string, k int) (*QueryResult, error) {
	m, err := r.query(ctx, sql, k)
	if err != nil {
		return nil, err
	}
	res := new(QueryResult)
	if err := json.Unmarshal(m.appendQuery(nil), res); err != nil {
		return nil, fmt.Errorf("router: decode merged query: %w", err)
	}
	return res, nil
}

// query is Query up to the merge: nothing of the answer is decoded yet.
func (r *Router) query(ctx context.Context, sql string, k int) (*merged, error) {
	parseStart := time.Now()
	_, parseSpan := r.tracer.Start(ctx, "router.parse")
	q, err := sqlparse.Parse(sql)
	if err != nil {
		parseSpan.SetError(err.Error())
	}
	parseSpan.End()
	r.metrics.parse.ObserveSince(parseStart)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if q.OrderBy != "" {
		return nil, fmt.Errorf("%w: ORDER BY is not supported in sharded serving (rows merge by subjective score); query a single shard or the monolith", ErrBadQuery)
	}
	if k <= 0 {
		k = r.defaultK
	}
	if q.Limit > 0 {
		// Same precedence as core's execute(): the SQL LIMIT overrides the
		// request-level default, and every shard applies it identically.
		k = q.Limit
	}
	start := time.Now()
	req := server.QueryRequest{SQL: sql, K: k}
	for _, e := range r.plan(ctx, sqlparse.SubjectivePredicates(q.Where)) {
		req.Plan = append(req.Plan, e.json)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("router: encode query: %w", err)
	}
	m, err := r.gather(ctx, "query", r.scatter(ctx, "POST", "/query", body), k)
	if err != nil {
		return nil, err
	}
	m.elapsedMs = float64(time.Since(start).Microseconds()) / 1000
	return m, nil
}

// TopK scatters a conjunction of predicates — interpreted once, the plan
// shipped with the scatter (plan.go) — to every shard's
// Threshold-Algorithm endpoint and heap-merges the shard top-ks into the
// exact global top k.
func (r *Router) TopK(ctx context.Context, predicates []string, k int) (*TopKResult, error) {
	m, err := r.topK(ctx, predicates, k)
	if err != nil {
		return nil, err
	}
	res := new(TopKResult)
	if err := json.Unmarshal(m.appendTopK(nil), res); err != nil {
		return nil, fmt.Errorf("router: decode merged topk: %w", err)
	}
	return res, nil
}

// topK is TopK up to the merge: nothing of the answer is decoded yet.
func (r *Router) topK(ctx context.Context, predicates []string, k int) (*merged, error) {
	if len(predicates) == 0 {
		return nil, fmt.Errorf("%w: topk needs at least one predicate", ErrBadQuery)
	}
	if k <= 0 {
		k = r.defaultK
	}
	start := time.Now()
	var target strings.Builder
	target.WriteString("/topk?")
	for _, p := range predicates {
		target.WriteString("predicate=")
		target.WriteString(queryEscape(p))
		target.WriteByte('&')
	}
	target.WriteString("k=")
	target.WriteString(strconv.Itoa(k))
	for _, e := range r.plan(ctx, predicates) {
		target.WriteString(e.param)
	}
	m, err := r.gather(ctx, "topk", r.scatter(ctx, "GET", target.String(), nil), k)
	if err != nil {
		return nil, err
	}
	m.elapsedMs = float64(time.Since(start).Microseconds()) / 1000
	return m, nil
}

// firstSuccess tries shards in index order starting at first (wrapping
// around) and decodes the first successful reply, returning it with the
// shard that gave it — the failover (not fan-out) pattern for endpoints
// whose answer comes from replicated global state, so any one shard is
// authoritative. Within each shard the request is served by the replica
// set (load-balanced, hedged), so a single dead replica never forces
// the hop to the next shard.
func firstSuccess[T any](r *Router, ctx context.Context, op, method, target string, body []byte, first int) (*T, int, error) {
	errs := map[int]string{}
	for n := range r.shards {
		i := (first + n) % len(r.shards)
		if err := ctx.Err(); err != nil {
			errs[i] = err.Error()
			break
		}
		reqCtx, cancel := context.WithTimeout(ctx, r.timeout)
		rep := r.shardRequest(reqCtx, i, method, target, body)
		cancel()
		if msg := replyError(rep); msg != "" {
			errs[i] = msg
			continue
		}
		out := new(T)
		if err := json.Unmarshal(rep.body, out); err != nil {
			errs[i] = fmt.Sprintf("bad response: %v", err)
			continue
		}
		return out, i, nil
	}
	return nil, -1, r.errAllShardsFailed(op, nil, errs)
}

// InterpretChain asks the fleet for a predicate's interpretation
// diagnostics, answering from the router's memo when it can (see
// cache.go — interpretation state is replicated and identical on every
// shard, so the front door may answer without a hop). cached reports
// whether the answer came from the cache. On a miss the router tries
// shards in index order and memoizes the first success.
func (r *Router) InterpretChain(ctx context.Context, predicate string) (resp *server.InterpretResponse, cached bool, err error) {
	memo, gen := r.interpretCached(predicate)
	if memo != nil {
		return memo, true, nil
	}
	resp, _, err = firstSuccess[server.InterpretResponse](r, ctx, "interpret", "GET", "/interpret?predicate="+queryEscape(predicate), nil, 0)
	if err != nil {
		return nil, false, err
	}
	r.interpretStore(predicate, resp, gen)
	return resp, false, nil
}

// ownerOf returns the index of the shard whose entity range contains id,
// or -1 when ranges are unknown or no shard owns it.
func (r *Router) ownerOf(id string) int {
	for i, s := range r.shards {
		if s.FirstEntity == "" && s.LastEntity == "" {
			return -1 // ranges not configured; caller scatters
		}
		if id >= s.FirstEntity && id <= s.LastEntity {
			return i
		}
	}
	return -1
}

// EvidenceStatus is Evidence's outcome: the owning shard's status code
// and body are passed through (a 404 for an unknown entity is a valid
// routed answer, not a router failure).
type EvidenceStatus struct {
	Status int
	Body   []byte
	// Shard is the shard index that answered; Replica the replica within
	// its set (-1 when unknown).
	Shard   int
	Replica int
}

// Evidence routes a marker-summary lookup to the shard owning the entity
// (by manifest range), falling back to a scatter when ranges are unknown.
// limit < 0 means unspecified (the shard applies its default); an
// explicit 0 is forwarded, matching the monolith's zero-extraction mode.
func (r *Router) Evidence(ctx context.Context, entity, attribute string, limit int) (*EvidenceStatus, error) {
	target := "/evidence?entity=" + queryEscape(entity) + "&attribute=" + queryEscape(attribute)
	if limit >= 0 {
		target += fmt.Sprintf("&limit=%d", limit)
	}
	if owner := r.ownerOf(entity); owner >= 0 {
		reqCtx, cancel := context.WithTimeout(ctx, r.timeout)
		defer cancel()
		rep := r.shardRequest(reqCtx, owner, "GET", target, nil)
		if rep.err != nil {
			return nil, fmt.Errorf("router: evidence: shard %d (%s): %w", owner, r.backendName(owner, rep.replica), rep.err)
		}
		return &EvidenceStatus{Status: rep.status, Body: rep.body, Shard: owner, Replica: rep.replica}, nil
	}
	// Unknown ownership: scatter; the owner answers 200, everyone else
	// 4xx. Prefer the 200. A miss is only a definitive not-found when
	// every shard actually answered with a deliberate client-error status
	// — a transport failure or 5xx means the entity may live on a shard
	// that could not say so, so report the failure instead of a confident
	// 404 a client would cache.
	replies := r.scatter(ctx, "GET", target, nil)
	errs := map[int]string{}
	var firstMiss *EvidenceStatus
	for i, rep := range replies {
		switch {
		case rep.err != nil:
			errs[i] = rep.err.Error()
		case rep.status == 200:
			return &EvidenceStatus{Status: rep.status, Body: rep.body, Shard: i, Replica: rep.replica}, nil
		case rep.status >= 400 && rep.status < 500:
			if firstMiss == nil {
				firstMiss = &EvidenceStatus{Status: rep.status, Body: rep.body, Shard: i, Replica: rep.replica}
			}
		default:
			errs[i] = replyError(rep)
		}
	}
	if len(errs) > 0 {
		parts := make([]string, 0, len(errs))
		for i := 0; i < len(r.shards); i++ {
			if msg, ok := errs[i]; ok {
				parts = append(parts, fmt.Sprintf("shard %d (%s): %s", i, r.shards[i].Backend.Name(), msg))
			}
		}
		return nil, fmt.Errorf("router: evidence: no shard answered 200 and the entity may live on an unreachable shard: %s",
			strings.Join(parts, "; "))
	}
	return firstMiss, nil
}

// ShardHealth is one node's health probe result — with replica sets the
// fleet health report carries one entry per node (every replica of every
// shard), not one per range.
type ShardHealth struct {
	// Index is the node's shard (range) index; Replica its position in
	// that range's replica set.
	Index    int                    `json:"index"`
	Replica  int                    `json:"replica"`
	Backend  string                 `json:"backend"`
	OK       bool                   `json:"ok"`
	Error    string                 `json:"error,omitempty"`
	Entities int                    `json:"entities"`
	Health   *server.HealthResponse `json:"health,omitempty"`
	// Ejection state from the router's own load balancer — the honest
	// view a probe cannot give: a node can answer /healthz while the
	// pick is routing around it. Ejected is true while the replica sits
	// out of the pick; EjectedForMs is the remaining cooldown; Strikes
	// the current consecutive-failure count toward the next ejection;
	// Ejections how many times this replica has been ejected in total.
	Ejected      bool    `json:"ejected,omitempty"`
	EjectedForMs float64 `json:"ejected_for_ms,omitempty"`
	Strikes      int64   `json:"strikes,omitempty"`
	Ejections    uint64  `json:"ejections,omitempty"`
	// Picks and HedgeWins mirror the per-replica balancer counters so an
	// operator can see starvation (an ejected or slow replica stops
	// getting picked) without scraping /metrics.
	Picks     uint64 `json:"picks"`
	HedgeWins uint64 `json:"hedge_wins,omitempty"`
}

// Health probes every node's /healthz — directly, not through the
// load-balanced pick, which exists to route around exactly the nodes a
// health probe must expose — and aggregates, folding in each replica's
// balancer state (ejection, strikes, picks, hedge wins). ok is true
// only when every replica of every shard answered.
func (r *Router) Health(ctx context.Context) (ok bool, shards []ShardHealth) {
	v, replies := r.scatterNodes(ctx, "GET", "/healthz")
	now := time.Now().UnixNano()
	ok = true
	for i, rep := range replies {
		node := v.nodes[i]
		sh := ShardHealth{Index: node.shard, Replica: node.idx, Backend: node.backend.Name()}
		if msg := replyError(rep); msg != "" {
			ok = false
			sh.Error = msg
		} else {
			var h server.HealthResponse
			if err := json.Unmarshal(rep.body, &h); err != nil {
				ok = false
				sh.Error = fmt.Sprintf("bad response: %v", err)
			} else {
				sh.OK = true
				sh.Entities = h.Entities
				hc := h
				sh.Health = &hc
			}
		}
		if until := node.ejectedUntil.Load(); until > now {
			sh.Ejected = true
			sh.EjectedForMs = float64(until-now) / 1e6
		}
		sh.Strikes = node.fails.Load()
		sh.Ejections = node.ejections.Load()
		sh.Picks = node.picked.Value()
		sh.HedgeWins = node.hedgeWins.Value()
		shards = append(shards, sh)
	}
	return ok, shards
}

// VerifyShardIdentities probes every node's /healthz and checks that a
// backend reporting a shard identity actually serves the shard range at
// its position — catching a misordered -router-backends list, which would
// otherwise misroute /evidence silently (scatters still work, so nothing
// else complains). Unreachable backends and backends without shard
// identity (in-process builds) are skipped; they cannot prove a mismatch.
func (r *Router) VerifyShardIdentities(ctx context.Context) error {
	_, nodes := r.Health(ctx)
	for _, sh := range nodes {
		if !sh.OK || sh.Health == nil || sh.Health.Snapshot == nil || sh.Health.Snapshot.Shard == nil {
			continue
		}
		id := sh.Health.Snapshot.Shard
		if id.Index != sh.Index {
			return fmt.Errorf("router: shard %d replica %d (%s) serves shard %d — the backend list must follow manifest order",
				sh.Index, sh.Replica, sh.Backend, id.Index)
		}
		if id.Count != len(r.shards) {
			return fmt.Errorf("router: shard %d replica %d (%s) belongs to a %d-shard build, this fleet has %d",
				sh.Index, sh.Replica, sh.Backend, id.Count, len(r.shards))
		}
	}
	return nil
}

// Schema returns the fleet's schema (replicated state; first live shard
// answers).
func (r *Router) Schema(ctx context.Context) (*server.SchemaResponse, error) {
	resp, _, err := firstSuccess[server.SchemaResponse](r, ctx, "schema", "GET", "/schema", nil, 0)
	return resp, err
}

// queryEscape percent-encodes a query-string value.
func queryEscape(s string) string { return url.QueryEscape(s) }

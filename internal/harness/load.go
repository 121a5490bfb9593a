package harness

// Mixed-traffic load harness: drive a routed fleet's HTTP surface with
// a configurable read/write mix (query / topk / interpret / reviews)
// at fixed concurrency for a fixed duration and report per-operation
// SLO percentiles from the exact recorded latencies (no bucketing —
// the sample counts here are small enough to sort). The same runner
// backs `opinedbload` (real TCP against a daemon or its own in-process
// fleet), the opinedbb smokes and this package's tests (in-process
// handler). It is a smoke and test fixture; performance is measured by
// the repository benchmark (`bash bench/run.sh`).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// LoadMix weights the four operation kinds. Zero-valued kinds are not
// driven; an all-zero mix is rejected.
type LoadMix struct {
	Query     int `json:"query"`
	TopK      int `json:"topk"`
	Interpret int `json:"interpret"`
	Reviews   int `json:"reviews"`
}

// DefaultLoadMix is read-heavy with a steady write trickle, the shape
// a serving fleet actually sees.
func DefaultLoadMix() LoadMix { return LoadMix{Query: 4, TopK: 3, Interpret: 2, Reviews: 1} }

func (m LoadMix) total() int { return m.Query + m.TopK + m.Interpret + m.Reviews }

// LoadOptions configure one load run.
type LoadOptions struct {
	Mix LoadMix
	// Concurrency is the number of workers driving requests. <= 0 means 4.
	Concurrency int
	// Duration bounds the run. <= 0 means 3s.
	Duration time.Duration
	// Seed makes the request sequence reproducible per worker.
	Seed int64
	// K is the result size requested by query/topk ops. <= 0 means 10.
	K int
}

// LoadOpStats are one operation kind's latency SLOs over a run.
type LoadOpStats struct {
	Ops        int     `json:"ops"`
	Errors     int     `json:"errors"`
	MeanMicros float64 `json:"mean_micros"`
	P50Micros  float64 `json:"p50_micros"`
	P95Micros  float64 `json:"p95_micros"`
	P99Micros  float64 `json:"p99_micros"`
	MaxMicros  float64 `json:"max_micros"`
}

// LoadResult is one mixed-traffic run's outcome.
type LoadResult struct {
	Concurrency  int                    `json:"concurrency"`
	Seconds      float64                `json:"seconds"`
	TotalOps     int                    `json:"total_ops"`
	TotalErrors  int                    `json:"total_errors"`
	OpsPerSecond float64                `json:"ops_per_second"`
	PerOp        map[string]LoadOpStats `json:"per_op"`
	// Err is non-empty when the run itself could not proceed (as opposed
	// to individual requests failing, which land in Errors).
	Err string `json:"error,omitempty"`
}

// LoadTarget executes one HTTP-shaped request against the system under
// load — the same signature as a router backend's Do, so an in-process
// handler and a real TCP endpoint are interchangeable.
type LoadTarget func(ctx context.Context, method, target string, body []byte) (status int, respBody []byte, err error)

// HTTPLoadTarget drives a live base URL ("http://127.0.0.1:8080")
// through client (nil uses http.DefaultClient's transport with a 30s
// timeout).
func HTTPLoadTarget(baseURL string, client *http.Client) LoadTarget {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	base := strings.TrimRight(baseURL, "/")
	return func(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
		req, err := newLoadRequest(ctx, method, base+target, body)
		if err != nil {
			return 0, nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return 0, nil, err
		}
		return resp.StatusCode, buf.Bytes(), nil
	}
}

// newLoadRequest builds one load request; a non-nil body is JSON.
func newLoadRequest(ctx context.Context, method, url string, body []byte) (*http.Request, error) {
	if body == nil {
		return http.NewRequestWithContext(ctx, method, url, nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

// HandlerLoadTarget drives an http.Handler in process — no sockets, so
// the run measures serving work, not loopback.
func HandlerLoadTarget(h http.Handler) LoadTarget {
	return func(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
		req, err := newLoadRequest(ctx, method, target, body)
		if err != nil {
			return 0, nil, err
		}
		var res server.MemResponse
		h.ServeHTTP(&res, req)
		return res.Status(), res.Body(), nil
	}
}

// loadVocabulary is the request vocabulary a run draws from.
type loadVocabulary struct {
	predicates []string
	entityIDs  []string
}

// loadVocab derives the vocabulary from a generated dataset: every
// schema-targeting bank predicate, and every entity id.
func loadVocab(d *corpus.Dataset) loadVocabulary {
	var v loadVocabulary
	for _, p := range d.Predicates {
		if p.Kind == corpus.KindOutOfSchema {
			continue
		}
		v.predicates = append(v.predicates, p.Text)
	}
	for _, e := range d.Entities {
		v.entityIDs = append(v.entityIDs, e.ID)
	}
	return v
}

// reviewPhrases seed the write traffic; they tokenize into the hotel
// schema's marker vocabulary so ingested reviews exercise the real
// enrichment path, not a stop-word fast path.
var reviewPhrases = []string{
	"The room was spotless and the staff were friendly.",
	"Terribly noisy at night but the breakfast was great.",
	"Lovely view, clean bathroom, very helpful reception.",
	"The bed was uncomfortable and the wifi kept dropping.",
	"Quiet floor, spacious room, excellent location.",
}

// loadSample is one recorded operation.
type loadSample struct {
	op     string
	micros float64
	err    bool
}

// RunLoadMix drives the target with the mixed workload and reports SLO
// percentiles per operation kind. Request errors (transport failures or
// any status >= 400) are counted, not fatal — a load run's job is to
// report them.
func RunLoadMix(ctx context.Context, do LoadTarget, vocabD *corpus.Dataset, opts LoadOptions) LoadResult {
	res := LoadResult{PerOp: map[string]LoadOpStats{}}
	if opts.Mix.total() <= 0 {
		res.Err = "load: mix has no operations"
		return res
	}
	vocab := loadVocab(vocabD)
	if len(vocab.predicates) == 0 || len(vocab.entityIDs) == 0 {
		res.Err = "load: empty request vocabulary"
		return res
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = 4
	}
	dur := opts.Duration
	if dur <= 0 {
		dur = 3 * time.Second
	}
	k := opts.K
	if k <= 0 {
		k = 10
	}
	res.Concurrency = conc

	// The weighted op table: one entry per weight unit, indexed by a
	// uniform draw.
	var ops []string
	for _, w := range []struct {
		name   string
		weight int
	}{
		{"query", opts.Mix.Query}, {"topk", opts.Mix.TopK},
		{"interpret", opts.Mix.Interpret}, {"reviews", opts.Mix.Reviews},
	} {
		for i := 0; i < w.weight; i++ {
			ops = append(ops, w.name)
		}
	}

	runCtx, cancel := context.WithDeadline(ctx, time.Now().Add(dur))
	defer cancel()
	start := time.Now()
	samples := make([][]loadSample, conc)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(w)*7919))
			day := 5000 + w
			for i := 0; runCtx.Err() == nil; i++ {
				op := ops[rng.Intn(len(ops))]
				var (
					method, target string
					body           []byte
				)
				switch op {
				case "query":
					pred := vocab.predicates[rng.Intn(len(vocab.predicates))]
					sql := `SELECT * FROM Entities WHERE "` + pred + `"`
					target = fmt.Sprintf("/query?sql=%s&k=%d", url.QueryEscape(sql), k)
					method = http.MethodGet
				case "topk":
					pred := vocab.predicates[rng.Intn(len(vocab.predicates))]
					target = fmt.Sprintf("/topk?predicate=%s&k=%d", url.QueryEscape(pred), k)
					method = http.MethodGet
				case "interpret":
					pred := vocab.predicates[rng.Intn(len(vocab.predicates))]
					target = "/interpret?predicate=" + url.QueryEscape(pred)
					method = http.MethodGet
				case "reviews":
					req := server.ReviewRequest{
						ID:       fmt.Sprintf("load-%d-%d-%d", opts.Seed, w, i),
						EntityID: vocab.entityIDs[rng.Intn(len(vocab.entityIDs))],
						Reviewer: fmt.Sprintf("loadgen-%d", w),
						Day:      day + i,
						Text:     reviewPhrases[rng.Intn(len(reviewPhrases))],
					}
					body, _ = json.Marshal(req)
					target, method = "/reviews", http.MethodPost
				}
				t0 := time.Now()
				status, _, err := do(runCtx, method, target, body)
				elapsed := time.Since(t0)
				if runCtx.Err() != nil && (err != nil || status >= 400) {
					// The deadline cut this request off mid-flight — whether the
					// failure surfaced as a transport error or as the router
					// reporting its cancelled scatter legs, it is the clock
					// ending the run, not a serving failure.
					break
				}
				samples[w] = append(samples[w], loadSample{
					op:     op,
					micros: float64(elapsed.Microseconds()),
					err:    err != nil || status >= 400,
				})
			}
		}(w)
	}
	wg.Wait()
	res.Seconds = time.Since(start).Seconds()

	byOp := map[string][]float64{}
	for _, ws := range samples {
		for _, s := range ws {
			st := res.PerOp[s.op]
			st.Ops++
			if s.err {
				st.Errors++
				res.TotalErrors++
			} else {
				byOp[s.op] = append(byOp[s.op], s.micros)
			}
			res.PerOp[s.op] = st
			res.TotalOps++
		}
	}
	for op, lat := range byOp {
		sort.Float64s(lat)
		st := res.PerOp[op]
		var sum float64
		for _, v := range lat {
			sum += v
		}
		st.MeanMicros = sum / float64(len(lat))
		st.P50Micros = percentile(lat, 0.50)
		st.P95Micros = percentile(lat, 0.95)
		st.P99Micros = percentile(lat, 0.99)
		st.MaxMicros = lat[len(lat)-1]
		res.PerOp[op] = st
	}
	if res.Seconds > 0 {
		res.OpsPerSecond = float64(res.TotalOps) / res.Seconds
	}
	return res
}

// percentile reads the exact q-quantile from sorted latencies (nearest-
// rank; the harness records every sample, so no interpolation needed).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// LoadFleet is an in-process journaled routed fleet assembled for load
// runs: the router's HTTP front door, the generated dataset behind it
// (the request vocabulary), the monolithic database the fleet was built
// from (the byte-identity reference), the shared metrics registry, and
// each node's journal directory, indexed [shard][replica] (a live join
// appends to JournalDirs[shard]).
type LoadFleet struct {
	Router      *router.Router
	Handler     http.Handler
	Dataset     *corpus.Dataset
	DB          *core.DB
	Registry    *obs.Registry
	JournalDirs [][]string
	Manifest    *snapshot.Manifest
	// Trace is the fleet's shared trace collector (nil when the fleet was
	// built without tracing). In-process fleets share ONE collector across
	// the router front door and every shard replica, so a routed request's
	// spans — front door, scatter legs, per-shard server work — land in a
	// single record exactly as a distributed fleet's would after
	// cross-process propagation.
	Trace *trace.Collector

	// The pieces a live join needs to assemble a fresh node exactly the
	// way BuildLoadFleet assembled the originals.
	manifestPath string
	shardServer  func(shard, replica int, path string, db *core.DB, meta *snapshot.Meta) server.Options
	wrap         func(shard, replica int, b router.Backend) router.Backend
}

// ReplayOwnedWrites folds every write the fleet journaled during a run
// into the pre-fleet monolith (fl.DB), each in its OWNER's commit order:
// shard by shard, replica 0's journal, applying only the writes that
// shard owns. Every node journals every routed write, but concurrent
// writers interleave differently at different nodes, and a summary's
// incremental centroid is floating-point order-sensitive — so byte
// identity with the live fleet (whose per-entity answers come from the
// owners) requires replaying each entity's writes in its owner's order,
// not any single node's. Corpus-global state is order-independent, so
// the shard-major replay order does not disturb it. Returns the number
// of writes applied.
func (fl *LoadFleet) ReplayOwnedWrites() (int, error) {
	applied := 0
	for s, ms := range fl.Manifest.Shard {
		jdir := fl.JournalDirs[s][0]
		_, err := journal.Replay(jdir, func(seq uint64, rv journal.Review) error {
			if rv.EntityID < ms.FirstEntity || rv.EntityID > ms.LastEntity {
				return nil
			}
			if err := fl.DB.ApplyReview(core.ReviewData{
				ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer,
				Day: rv.Day, Text: rv.Text,
			}); err != nil {
				return fmt.Errorf("shard %d seq %d: %w", s, seq, err)
			}
			applied++
			return nil
		})
		if err != nil {
			return applied, fmt.Errorf("replay owned writes: %w", err)
		}
	}
	return applied, nil
}

// LoadFleetOptions configure BuildLoadFleet.
type LoadFleetOptions struct {
	// Shards is the fleet size. <= 0 means 4.
	Shards int
	// Replicas is each shard range's replica-set size. <= 0 means 1.
	Replicas int
	// Seed drives corpus generation and the build.
	Seed int64
	// DisableTopKMemo turns off per-shard /topk fragment memoization — the
	// reference arm of the memo byte-identity test.
	DisableTopKMemo bool
	// SlowReplica injects a fixed per-request delay in front of one
	// backend — the LAST replica of shard 0 — so a degraded replica's
	// tail (and hedging's answer to it) is reproducible on demand.
	SlowReplica time.Duration
	// WrapBackend, when non-nil, wraps each node's backend after any
	// SlowReplica delay — the kill-switch seam the replica smoke uses.
	WrapBackend func(shard, replica int, b router.Backend) router.Backend
	// Trace, when non-nil, builds the fleet with request tracing: one
	// shared collector wired into the router and every shard server. The
	// collector's sampler RNG is its own (never the router's pick RNG), so
	// tracing cannot perturb replica choice or the query fingerprint.
	Trace *trace.Options
}

// BuildLoadFleet generates the small hotel corpus, builds the
// subjective database, writes an n-shard fleet under dir, and serves it
// through an in-process router — R replicas per range when requested —
// with per-node journals and one shared metrics registry, the same
// deployment shape as `opinedbd -router`.
func BuildLoadFleet(dir string, opts LoadFleetOptions) (*LoadFleet, error) {
	shards := opts.Shards
	if shards <= 0 {
		shards = 4
	}
	replicas := opts.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("load fleet: %w", err)
	}
	genCfg := corpus.SmallConfig()
	genCfg.Seed = opts.Seed
	d := corpus.GenerateHotels(genCfg)
	cfg := core.DefaultConfig()
	cfg.Seed = opts.Seed
	db, err := BuildDB(d, cfg, 400, 300)
	if err != nil {
		return nil, fmt.Errorf("load fleet: build: %w", err)
	}
	manifestPath, err := WriteReplicatedFleet(db, dir, "load", shards, replicas, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("load fleet: %w", err)
	}

	reg := obs.NewRegistry()
	var tracer *trace.Collector
	if opts.Trace != nil {
		tracer = trace.New(*opts.Trace)
	}
	fl := &LoadFleet{Dataset: d, DB: db, Registry: reg, Trace: tracer, JournalDirs: make([][]string, shards), manifestPath: manifestPath}
	for s := range fl.JournalDirs {
		fl.JournalDirs[s] = make([]string, replicas)
	}
	fl.shardServer = func(shard, replica int, path string, sdb *core.DB, meta *snapshot.Meta) server.Options {
		// Replica 0 keeps the pre-replication journal dir name so
		// single-replica artifacts stay where tooling expects them.
		name := fmt.Sprintf("shard-%d.journal", shard)
		if replica > 0 {
			name = fmt.Sprintf("shard-%d-r%d.journal", shard, replica)
		}
		jdir := filepath.Join(dir, name)
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			return server.Options{}
		}
		j, jerr := journal.Open(jdir, journal.Options{
			SyncEvery:    1, // an ack means fsynced
			SyncObserver: server.FsyncObserver(reg),
		})
		if jerr != nil {
			return server.Options{}
		}
		for len(fl.JournalDirs[shard]) <= replica {
			fl.JournalDirs[shard] = append(fl.JournalDirs[shard], "")
		}
		fl.JournalDirs[shard][replica] = jdir
		ingest := server.JournaledIngest(j)
		ingest.AcceptUnowned = true
		return server.Options{
			Metrics:         reg,
			Trace:           tracer,
			DisableTopKMemo: opts.DisableTopKMemo,
			Ingest:          ingest,
		}
	}
	fl.wrap = func(shard, replica int, b router.Backend) router.Backend {
		if opts.SlowReplica > 0 && shard == 0 && replica == replicas-1 {
			b = &router.DelayBackend{Inner: b, Delay: opts.SlowReplica}
		}
		if opts.WrapBackend != nil {
			b = opts.WrapBackend(shard, replica, b)
		}
		return b
	}
	rt, m, err := router.FromManifest(manifestPath, router.ManifestOptions{
		Options:     router.Options{Metrics: reg, Trace: tracer},
		ShardServer: fl.shardServer,
		WrapBackend: fl.wrap,
	})
	if err != nil {
		return nil, fmt.Errorf("load fleet: %w", err)
	}
	fl.Router = rt
	fl.Handler = router.NewHandler(rt)
	fl.Manifest = m
	return fl, nil
}

// NewJoinerBackend assembles a fresh node for one shard range exactly
// the way BuildLoadFleet assembled the originals: the digest-verified
// shard snapshot, its own journal directory (appended to
// JournalDirs[shard]), and the same wrapping. The node is live but NOT
// in the router — hand it to Router.AdmitReplica to join the range's
// replica set.
func (fl *LoadFleet) NewJoinerBackend(shard int) (router.Backend, error) {
	if shard < 0 || shard >= len(fl.Manifest.Shard) {
		return nil, fmt.Errorf("load fleet: joiner for shard %d of %d", shard, len(fl.Manifest.Shard))
	}
	db, meta, err := snapshot.LoadVerifiedShard(fl.manifestPath, fl.Manifest, shard)
	if err != nil {
		return nil, fmt.Errorf("load fleet: joiner: %w", err)
	}
	replica := len(fl.JournalDirs[shard])
	srvOpts := fl.shardServer(shard, replica, snapshot.ShardPath(fl.manifestPath, fl.Manifest.Shard[shard]), db, meta)
	if srvOpts.Ingest == nil {
		return nil, fmt.Errorf("load fleet: joiner for shard %d could not open a journal", shard)
	}
	name := fmt.Sprintf("shard%d.r%d", shard, replica)
	return fl.wrap(shard, replica, router.NewLocalBackend(name, db, srvOpts)), nil
}

// FormatLoad renders a load run as the SLO table operators read.
func FormatLoad(r LoadResult) string {
	var b strings.Builder
	if r.Err != "" {
		fmt.Fprintf(&b, "  FAILED: %s\n", r.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  %d workers, %.1fs: %d ops (%.0f ops/s), %d errors\n",
		r.Concurrency, r.Seconds, r.TotalOps, r.OpsPerSecond, r.TotalErrors)
	for _, op := range []string{"query", "topk", "interpret", "reviews"} {
		st, ok := r.PerOp[op]
		if !ok || st.Ops == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-9s %6d ops   mean %8.0f µs   p50 %8.0f   p95 %8.0f   p99 %8.0f   max %8.0f   errors %d\n",
			op, st.Ops, st.MeanMicros, st.P50Micros, st.P95Micros, st.P99Micros, st.MaxMicros, st.Errors)
	}
	return b.String()
}

// Command opinedbload drives configurable mixed read/write traffic at
// an OpineDB routed fleet and reports per-operation SLO percentiles.
//
// Two modes:
//
//   - Against a live fleet: `opinedbload -addr http://127.0.0.1:8080`.
//     The request vocabulary (predicates and entity ids) is regenerated
//     from -seed, so the target should be a fleet built from the same
//     small corpus and seed (as `opinedbd`'s defaults and the smoke
//     targets do).
//
//   - Self-contained smoke: `opinedbload -smoke` builds a journaled
//     in-process fleet, serves it on a loopback listener, runs the mix
//     over real TCP, and exits non-zero unless the run completed with
//     zero request errors and non-zero latency percentiles. This is
//     what `make load-smoke` and CI run. Adding `-fingerprint` replays
//     the fleet's journal into the pre-fleet monolith after the run and
//     also fails unless the routed fleet answers the full query set
//     byte-identically — `make write-smoke` drives a write-heavy mix
//     through this gate to prove group commit changes scheduling, not
//     state.
//
// The mix is weights, not percentages: `-mix query=4,topk=3,interpret=2,reviews=1`.
//
// Smoke-mode fault injection: `-replicas 2 -slow-replica 25ms` serves
// every range twice and degrades one backend, so the hedged scatter's
// answer to a slow replica is reproducible on demand (`make trace-smoke`
// asserts on it).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running fleet front door (e.g. http://127.0.0.1:8080)")
	smoke := flag.Bool("smoke", false, "build an in-process fleet on a loopback listener and load it (self-check mode)")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive traffic")
	concurrency := flag.Int("concurrency", 8, "number of concurrent workers")
	mixSpec := flag.String("mix", "query=4,topk=3,interpret=2,reviews=1", "operation weights")
	seed := flag.Int64("seed", 1, "seed for corpus vocabulary and request sequence")
	shards := flag.Int("shards", 4, "fleet size in -smoke mode")
	replicas := flag.Int("replicas", 1, "replica-set size per shard range in -smoke mode")
	slowReplica := flag.Duration("slow-replica", 0, "-smoke mode fault injection: add this per-request delay in front of one backend (the last replica of shard 0), so a degraded replica's tail — and hedging's answer to it — is reproducible on demand")
	k := flag.Int("k", 10, "result size for query/topk operations")
	fingerprint := flag.Bool("fingerprint", false, "-smoke mode: after the run, replay one node's journal into the pre-fleet monolith and require the routed fleet to answer the full query set byte-identically (write-path identity gate)")
	slowMS := flag.Float64("slow-ms", 0, "after the run, print the retained traces slower than this many milliseconds — from the fleet's /debug/traces in -addr mode, from the in-process collector in -smoke mode (where it also lowers the tail-sampling retention cutoff to match)")
	traceSmoke := flag.Bool("trace-smoke", false, "-smoke mode tracing gate: requires -replicas >= 2 and -slow-replica, and fails unless the trace store holds a hedge-won request whose scatter legs carry shard/replica attribution and whose server-side spans joined the same trace")
	jsonOut := flag.Bool("json", false, "emit the result as JSON instead of the SLO table")
	flag.Parse()

	if (*addr == "") == !*smoke {
		log.Fatal("opinedbload: exactly one of -addr or -smoke is required")
	}
	if *fingerprint && !*smoke {
		log.Fatal("opinedbload: -fingerprint requires -smoke (it replays the in-process fleet's journals)")
	}
	if *traceSmoke {
		if !*smoke {
			log.Fatal("opinedbload: -trace-smoke requires -smoke")
		}
		if *replicas < 2 || *slowReplica <= 0 {
			log.Fatal("opinedbload: -trace-smoke needs a hedge-win to assert on: use -replicas >= 2 and -slow-replica > 0")
		}
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		log.Fatalf("opinedbload: %v", err)
	}

	ctx := context.Background()
	opts := harness.LoadOptions{
		Mix:         mix,
		Concurrency: *concurrency,
		Duration:    *duration,
		Seed:        *seed,
		K:           *k,
	}

	var (
		target harness.LoadTarget
		vocab  *corpus.Dataset
		fl     *harness.LoadFleet
		srv    *http.Server
	)
	if *smoke {
		dir, err := os.MkdirTemp("", "opinedbload-*")
		if err != nil {
			log.Fatalf("opinedbload: %v", err)
		}
		defer os.RemoveAll(dir)
		log.Printf("building %d-shard journaled fleet (replicas %d, seed %d)...", *shards, *replicas, *seed)
		tropts := &trace.Options{}
		if *slowMS > 0 {
			tropts.SlowCutoff = time.Duration(*slowMS * float64(time.Millisecond))
		}
		if *traceSmoke {
			// A hedge-won request is FAST — that is hedging working — so it
			// would rarely clear the slow-retention cutoff. Sample every
			// trace and widen the ring so the gate has wins to inspect.
			tropts.SampleRate = 1
			tropts.Capacity = 4096
		}
		fl, err = harness.BuildLoadFleet(dir, harness.LoadFleetOptions{
			Shards:      *shards,
			Replicas:    *replicas,
			Seed:        *seed,
			SlowReplica: *slowReplica,
			Trace:       tropts,
		})
		if err != nil {
			log.Fatalf("opinedbload: %v", err)
		}
		if *slowReplica > 0 {
			defer func() {
				fired, wins := fl.Router.HedgeStats()
				log.Printf("hedges: fired %d, won %d", fired, wins)
			}()
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("opinedbload: %v", err)
		}
		srv = &http.Server{Handler: fl.Handler}
		go srv.Serve(ln)
		defer srv.Close()
		base := "http://" + ln.Addr().String()
		log.Printf("fleet listening on %s", base)
		target = harness.HTTPLoadTarget(base, nil)
		vocab = fl.Dataset
	} else {
		genCfg := corpus.SmallConfig()
		genCfg.Seed = *seed
		vocab = corpus.GenerateHotels(genCfg)
		target = harness.HTTPLoadTarget(*addr, nil)
	}

	res := harness.RunLoadMix(ctx, target, vocab, opts)
	if srv != nil {
		// Drain before judging the run: workers whose deadline expired
		// mid-request abandoned the client side, but the server handlers
		// are still journaling and folding those writes. The fingerprint
		// gate compares journals against live state, so every in-flight
		// commit must land first.
		drainCtx, cancelDrain := context.WithTimeout(ctx, 30*time.Second)
		if err := srv.Shutdown(drainCtx); err != nil {
			log.Fatalf("opinedbload: drain: %v", err)
		}
		cancelDrain()
	}
	if *jsonOut {
		data, _ := json.MarshalIndent(res, "", "  ")
		fmt.Println(string(data))
	} else {
		fmt.Print(harness.FormatLoad(res))
	}
	if res.Err != "" {
		os.Exit(1)
	}
	if *slowMS > 0 {
		if err := printSlowTraces(*addr, fl, *slowMS); err != nil {
			log.Fatalf("opinedbload: slow traces: %v", err)
		}
	}
	if *smoke {
		if err := checkSmoke(res); err != nil {
			log.Fatalf("opinedbload: smoke FAILED: %v", err)
		}
		log.Printf("smoke OK: %d ops, 0 errors", res.TotalOps)
		if *traceSmoke {
			if err := checkTraceSmoke(fl); err != nil {
				log.Fatalf("opinedbload: trace-smoke FAILED: %v", err)
			}
		}
		if *fingerprint {
			if err := checkFingerprint(ctx, fl); err != nil {
				log.Fatalf("opinedbload: fingerprint FAILED: %v", err)
			}
		}
	}
}

// printSlowTraces renders every retained trace slower than minMS, the
// "chase one slow request" workflow: run the load, then read exactly the
// traces tail sampling kept for you. Smoke mode reads the in-process
// collector; -addr mode asks the live fleet's /debug/traces.
func printSlowTraces(addr string, fl *harness.LoadFleet, minMS float64) error {
	var traces []trace.TraceJSON
	if fl != nil {
		for _, t := range fl.Trace.Snapshot() {
			if t.DurationMS >= minMS {
				traces = append(traces, t)
			}
		}
	} else {
		resp, err := http.Get(strings.TrimRight(addr, "/") + fmt.Sprintf("/debug/traces?min_ms=%g", minMS))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/debug/traces answered %d (is the fleet running with tracing enabled?)", resp.StatusCode)
		}
		var body struct {
			Traces []trace.TraceJSON `json:"traces"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return err
		}
		traces = body.Traces
	}
	log.Printf("%d retained traces slower than %gms", len(traces), minMS)
	for _, t := range traces {
		data, _ := json.MarshalIndent(t, "", "  ")
		fmt.Println(string(data))
	}
	return nil
}

// checkTraceSmoke enforces the end-to-end tracing contract on the
// smoke fleet's collector: some retained trace must show a hedge that
// fired and won — its winning scatter leg attributed to a shard and
// replica — and that same trace must carry server-side spans, proving
// the trace id propagated across the (real TCP) process boundary and
// the whole request assembled into one record.
func checkTraceSmoke(fl *harness.LoadFleet) error {
	traces := fl.Trace.Snapshot()
	if len(traces) == 0 {
		return fmt.Errorf("trace store is empty after the run")
	}
	attr := func(s trace.SpanJSON, key string) string {
		for _, a := range s.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	for _, t := range traces {
		var hedgeWon, serverSide bool
		for _, s := range t.Spans {
			if s.Name == "router.leg" && attr(s, "hedge_won") == "true" &&
				attr(s, "shard") != "" && attr(s, "replica") != "" {
				hedgeWon = true
			}
			if strings.HasPrefix(s.Name, "server.") {
				serverSide = true
			}
		}
		if hedgeWon && serverSide {
			log.Printf("trace-smoke OK: trace %s (%.1fms, %d spans) shows a hedge-won leg with shard/replica attribution and propagated server spans",
				t.TraceID, t.DurationMS, len(t.Spans))
			return nil
		}
	}
	return fmt.Errorf("no retained trace shows a hedge-won leg with server-side spans (%d traces inspected)", len(traces))
}

// parseMix reads "query=4,topk=3,interpret=2,reviews=1"; omitted ops
// get weight 0.
func parseMix(spec string) (harness.LoadMix, error) {
	var m harness.LoadMix
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad mix entry %q (want op=weight)", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		switch strings.TrimSpace(strings.ToLower(name)) {
		case "query":
			m.Query = w
		case "topk":
			m.TopK = w
		case "interpret":
			m.Interpret = w
		case "reviews":
			m.Reviews = w
		default:
			return m, fmt.Errorf("unknown op %q (want query|topk|interpret|reviews)", name)
		}
	}
	if m.Query+m.TopK+m.Interpret+m.Reviews == 0 {
		return m, fmt.Errorf("mix %q has no operations", spec)
	}
	return m, nil
}

// checkFingerprint enforces the write-path byte-identity gate: every
// journaled write replays into the monolithic database the fleet was
// built from — each in its owner shard's commit order (see
// LoadFleet.ReplayOwnedWrites) — and the routed fleet, which served
// those writes concurrently and group-committed, must then answer the
// complete query set byte-identically to that monolith.
func checkFingerprint(ctx context.Context, fl *harness.LoadFleet) error {
	// Converge before auditing: a replication the loaded replica refused
	// (the injected-slow node shedding under -slow-replica, say) is healed
	// by the write path's next heal-before-write pass — but writes landing
	// at the very end of the run have no later write to trigger it, which
	// would leave one replica honestly stale and fail the identity check
	// below for scheduling reasons, not correctness ones. One anti-entropy
	// pass settles the fleet exactly the way an operator would.
	if _, err := fl.Router.RunRepair(ctx); err != nil {
		return fmt.Errorf("pre-fingerprint repair pass: %w", err)
	}
	applied, err := fl.ReplayOwnedWrites()
	if err != nil {
		return fmt.Errorf("replay into monolith: %w", err)
	}
	fleetFP, n := harness.QueryFingerprint(fl.Dataset, fl.Router.Engine(ctx))
	monoFP, _ := harness.QueryFingerprint(fl.Dataset, fl.DB)
	if fleetFP != monoFP {
		return fmt.Errorf("routed fleet diverges from the replayed monolith over the %d-entry query set (%d journaled writes)", n, applied)
	}
	log.Printf("fingerprint OK: %d journaled writes replayed; %d-entry query set byte-identical (routed fleet vs monolith)", applied, n)
	return nil
}

// checkSmoke enforces the self-check contract: traffic flowed on every
// configured op, nothing errored, and latencies were actually measured.
func checkSmoke(res harness.LoadResult) error {
	if res.TotalOps == 0 {
		return fmt.Errorf("no operations completed")
	}
	if res.TotalErrors != 0 {
		return fmt.Errorf("%d request errors", res.TotalErrors)
	}
	for op, st := range res.PerOp {
		if st.Ops == 0 {
			continue
		}
		if st.P99Micros <= 0 {
			return fmt.Errorf("op %s: zero p99 over %d ops", op, st.Ops)
		}
	}
	return nil
}

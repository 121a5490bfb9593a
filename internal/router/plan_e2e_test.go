package router_test

// End-to-end tests of plan → execute over journaled in-process fleets
// sharded from the ingest fixture's monolithic base snapshot: the routed answers stay
// byte-identical to the monolith's when one node's applied sequence
// differs from the planner's, when a write lands between the plan and the
// scatter, and while reads race writes; and the front door's memo keeps
// stage-1 plans across writes and nothing else.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// planFleet is a journaled in-process fleet over the ingest fixture's
// base build, every tier feeding one registry.
type planFleet struct {
	rt     *router.Router
	reg    *obs.Registry
	ranges [][]string // per shard: the entity ids it serves, sorted
}

// planFleetOptions shape newPlanFleet. preApplied(shard, replica) lists
// reviews folded into that node BEFORE it starts journaling, so the node
// holds them without a sequence number for them. wrap decorates a node's
// backend.
type planFleetOptions struct {
	replicas   int
	preApplied func(shard, replica int) []core.ReviewData
	wrap       func(shard, replica int, b router.Backend) router.Backend
	trace      *trace.Collector
}

// The ingest fixture's shard snapshots are compacted by another test; its
// monolithic base is never touched. planShards shards that base onto disk
// once, so every node of every fleet loads its own copy (shard databases
// cut from one in-memory build share their corpus-global state).
var (
	planShardsOnce  sync.Once
	planShardPaths  []string
	planShardRanges [][]string
	planShardsErr   error
)

func planShards(t *testing.T) ([]string, [][]string) {
	t.Helper()
	ingestFixture(t)
	planShardsOnce.Do(func() {
		base, _, err := snapshot.Load(ingestBaseSnap)
		if err != nil {
			planShardsErr = err
			return
		}
		dbs, ranges, err := base.Shards(ingestShards)
		if err != nil {
			planShardsErr = err
			return
		}
		for i, db := range dbs {
			path := filepath.Join(filepath.Dir(ingestBaseSnap), fmt.Sprintf("plan-shard%d.snap", i))
			if _, err := snapshot.Save(path, db); err != nil {
				planShardsErr = err
				return
			}
			planShardPaths = append(planShardPaths, path)
		}
		planShardRanges = ranges
	})
	if planShardsErr != nil {
		t.Fatalf("plan fixture: %v", planShardsErr)
	}
	return planShardPaths, planShardRanges
}

func newPlanFleet(t *testing.T, o planFleetOptions) *planFleet {
	t.Helper()
	paths, ranges := planShards(t)
	f := &planFleet{reg: obs.NewRegistry(), ranges: ranges}
	node := func(shard, replica int) router.Backend {
		db, _, err := snapshot.Load(paths[shard])
		if err != nil {
			t.Fatalf("shard %d load: %v", shard, err)
		}
		if o.preApplied != nil {
			for _, rv := range o.preApplied(shard, replica) {
				if err := db.ApplyReview(rv); err != nil {
					t.Fatal(err)
				}
			}
		}
		j, err := journal.Open(filepath.Join(t.TempDir(), "wal"), journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		var b router.Backend = router.NewLocalBackend(fmt.Sprintf("shard%d.r%d", shard, replica), db, server.Options{
			Metrics: f.reg,
			Trace:   o.trace,
			Ingest: &server.IngestOptions{
				AcceptUnowned: true,
				Append: func(rv core.ReviewData) (uint64, error) {
					return j.Append(journal.Review{ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text})
				},
			},
		})
		if o.wrap != nil {
			b = o.wrap(shard, replica, b)
		}
		return b
	}
	shards := make([]router.Shard, ingestShards)
	for i := range shards {
		shards[i] = router.Shard{Backend: node(i, 0), FirstEntity: ranges[i][0], LastEntity: ranges[i][len(ranges[i])-1]}
		for r := 1; r < o.replicas; r++ {
			shards[i].Replicas = append(shards[i].Replicas, node(i, r))
		}
	}
	rt, err := router.New(shards, router.Options{PickSeed: 1, Metrics: f.reg, Trace: o.trace})
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	return f
}

func (f *planFleet) write(t *testing.T, rv core.ReviewData) {
	t.Helper()
	res, err := f.rt.AddReview(context.Background(), server.ReviewRequest{
		ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
	})
	if err != nil || res.Partial {
		t.Fatalf("write %s: %+v, %v", rv.ID, res, err)
	}
}

func (f *planFleet) counter(name string) uint64 { return f.reg.Counter(name, "").Value() }

func (f *planFleet) ownerOf(entity string) int {
	for i, ids := range f.ranges {
		if entity >= ids[0] && entity <= ids[len(ids)-1] {
			return i
		}
	}
	return -1
}

// referenceWith loads the monolithic base and folds deltas into it.
func referenceWith(t *testing.T, deltas []core.ReviewData) *core.DB {
	t.Helper()
	ref, _, err := snapshot.Load(ingestBaseSnap)
	if err != nil {
		t.Fatal(err)
	}
	for _, rv := range deltas {
		if err := ref.ApplyReview(rv); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// bankPredicate finds a bank predicate db interprets with method.
func bankPredicate(t *testing.T, d *corpus.Dataset, db *core.DB, method core.Method) string {
	t.Helper()
	for _, p := range d.Predicates {
		if db.Interpret(p.Text).Method == method {
			return p.Text
		}
	}
	t.Fatalf("the predicate bank has no %s predicate", method)
	return ""
}

// TestPlanByteIdentityWithLaggingNode: one node's applied sequence trails
// the fleet's — it holds the first delta from before it began journaling,
// as a replica restored from a compacted snapshot does — while its state
// is the fleet's. Stage-2/3 plans resolved elsewhere do not match its
// sequence (and its own do not match anyone else's), so those predicates
// are interpreted locally there, and the 948-entry fingerprint through
// Router.Engine stays byte-identical to the monolith's at R=1 and R=2,
// hedging on.
func TestPlanByteIdentityWithLaggingNode(t *testing.T) {
	d, deltas, _ := ingestFixture(t)
	want, n := harness.QueryFingerprint(d, referenceWith(t, deltas))
	if n != 948 {
		t.Errorf("fingerprint covers %d query-set entries, want the full 948", n)
	}
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", replicas), func(t *testing.T) {
			var f *planFleet
			lagShard, lagReplica := 0, replicas-1
			f = newPlanFleet(t, planFleetOptions{
				replicas: replicas,
				preApplied: func(shard, replica int) []core.ReviewData {
					if shard == lagShard && replica == lagReplica {
						return deltas[:1]
					}
					return nil
				},
			})
			if replicas == 1 && f.ownerOf(deltas[0].EntityID) == lagShard {
				t.Fatalf("the lagging shard owns %s; its 409 would reject the first write", deltas[0].EntityID)
			}
			for _, rv := range deltas {
				f.write(t, rv) // the lagging node answers 409 to the first: counted replicated
			}
			got, _ := harness.QueryFingerprint(d, f.rt.Engine(context.Background()))
			if got != want {
				t.Fatalf("fleet with a lagging node diverges from the monolith:\n%s", firstDiff(want, got))
			}
			if used, stale := f.counter(server.MetricPlanUsed), f.counter(server.MetricPlanStale); used == 0 || stale == 0 {
				t.Fatalf("plan entries used %d, stale %d: the fingerprint must exercise both", used, stale)
			}
			if hits, misses := f.counter(router.MetricRouterPlanHits), f.counter(router.MetricRouterPlanMisses); hits == 0 || misses == 0 {
				t.Fatalf("plan memo hits %d, misses %d", hits, misses)
			}
		})
	}
}

// afterPlanBackend runs hook once, after the first /plan reply it relays.
type afterPlanBackend struct {
	router.Backend
	once *sync.Once
	hook func()
}

func (b afterPlanBackend) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	status, resp, err := b.Backend.Do(ctx, method, target, body)
	if target == "/plan" {
		b.once.Do(b.hook)
	}
	return status, resp, err
}

// TestWriteBetweenPlanAndScatter lands a fleet-wide write after the plan
// was resolved and before any scatter leg runs: every shard finds the
// stage-2/3 entry's gen behind its own sequence, interprets locally
// against the new state, and the answer is the monolith's after the same
// write — as it was before plans existed.
func TestWriteBetweenPlanAndScatter(t *testing.T) {
	d, deltas, _ := ingestFixture(t)
	mined := bankPredicate(t, d, referenceWith(t, nil), core.MethodCooccur)
	for name, run := range map[string]func(e harness.QueryEngine) (interface{}, error){
		"query": func(e harness.QueryEngine) (interface{}, error) {
			// Rewritten is left out: the engine brackets a one-predicate
			// conjunction, the SQL the router renders has no conjunction.
			res, err := e.RankPredicates([]string{mined}, nil, core.DefaultQueryOptions())
			if err != nil {
				return nil, err
			}
			return []interface{}{res.Rows, res.Interpretations}, nil
		},
		"topk": func(e harness.QueryEngine) (interface{}, error) {
			rows, _, err := e.TopKThreshold([]string{mined}, 10)
			return rows, err
		},
	} {
		t.Run(name, func(t *testing.T) {
			var f *planFleet
			var once sync.Once
			f = newPlanFleet(t, planFleetOptions{
				replicas: 1,
				wrap: func(_, _ int, b router.Backend) router.Backend {
					return afterPlanBackend{Backend: b, once: &once, hook: func() { f.write(t, deltas[0]) }}
				},
			})
			got, err := run(f.rt.Engine(context.Background()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := run(referenceWith(t, deltas[:1]))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("answer after a mid-request write diverges from the monolith:\n got %+v\nwant %+v", got, want)
			}
			if stale := f.counter(server.MetricPlanStale); stale != ingestShards {
				t.Fatalf("stale plan entries = %d, want one per shard (%d)", stale, ingestShards)
			}
		})
	}
}

// TestPlansUnderConcurrentWrites races routed reads against routed writes
// (run under -race), then checks the quiesced fleet against the monolith.
func TestPlansUnderConcurrentWrites(t *testing.T) {
	d, deltas, _ := ingestFixture(t)
	f := newPlanFleet(t, planFleetOptions{replicas: 2})
	base := referenceWith(t, nil)
	preds := []string{
		bankPredicate(t, d, base, core.MethodW2V),
		bankPredicate(t, d, base, core.MethodCooccur),
		bankPredicate(t, d, base, core.MethodFallback),
	}
	ctx := context.Background()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := preds[(g+i)%len(preds)]
				if _, err := f.rt.Query(ctx, `select * from Entities where "`+p+`"`, 5); err != nil {
					t.Errorf("query %q: %v", p, err)
					return
				}
				if _, err := f.rt.TopK(ctx, []string{p, preds[i%len(preds)]}, 5); err != nil {
					t.Errorf("topk %q: %v", p, err)
					return
				}
			}
		}(g)
	}
	for _, rv := range deltas {
		f.write(t, rv)
	}
	close(stop)
	readers.Wait()
	want, _ := harness.QueryFingerprint(d, referenceWith(t, deltas))
	if got, _ := harness.QueryFingerprint(d, f.rt.Engine(ctx)); got != want {
		t.Fatalf("fleet diverges from the monolith after racing reads and writes:\n%s", firstDiff(want, got))
	}
}

// TestStageOnePlansSurviveWrites: after a routed write the memo still
// serves the stage-1 predicate's plan and hops again for the others.
func TestStageOnePlansSurviveWrites(t *testing.T) {
	d, deltas, _ := ingestFixture(t)
	f := newPlanFleet(t, planFleetOptions{replicas: 1})
	base := referenceWith(t, nil)
	frozen := bankPredicate(t, d, base, core.MethodW2V)
	mined := bankPredicate(t, d, base, core.MethodCooccur)
	unmatched := bankPredicate(t, d, base, core.MethodFallback)
	ctx := context.Background()
	ask := func() (hits, misses uint64) {
		t.Helper()
		h0, m0 := f.counter(router.MetricRouterPlanHits), f.counter(router.MetricRouterPlanMisses)
		if _, err := f.rt.TopK(ctx, []string{frozen, mined, unmatched}, 5); err != nil {
			t.Fatal(err)
		}
		return f.counter(router.MetricRouterPlanHits) - h0, f.counter(router.MetricRouterPlanMisses) - m0
	}
	if h, m := ask(); h != 0 || m != 3 {
		t.Fatalf("cold memo: %d hits, %d misses, want 0 and 3", h, m)
	}
	if h, m := ask(); h != 3 || m != 0 {
		t.Fatalf("warm memo: %d hits, %d misses, want 3 and 0", h, m)
	}
	f.write(t, deltas[0])
	if h, m := ask(); h != 1 || m != 2 {
		t.Fatalf("after a write: %d hits, %d misses, want 1 (stage 1) and 2", h, m)
	}
	if h, m := ask(); h != 3 || m != 0 {
		t.Fatalf("re-planned memo: %d hits, %d misses, want 3 and 0", h, m)
	}
	if n := f.reg.Histogram(router.MetricRouterPlanSeconds, "").Count(); n != 4 {
		t.Fatalf("plan step observed %d times, want once per request (4)", n)
	}
}

// TestFrontDoorRejectsClientPlan: plans are the router's to make.
func TestFrontDoorRejectsClientPlan(t *testing.T) {
	f := newPlanFleet(t, planFleetOptions{replicas: 1})
	front := httptest.NewServer(router.NewHandler(f.rt))
	defer front.Close()
	entry := `{"predicate":"clean rooms","method":"fallback","similarity":0,"gen":0}`
	body, _ := json.Marshal(map[string]interface{}{
		"sql": `select * from Entities where "clean rooms"`, "plan": []json.RawMessage{json.RawMessage(entry)},
	})
	for name, do := range map[string]func() (*http.Response, error){
		"POST /query": func() (*http.Response, error) {
			return http.Post(front.URL+"/query", "application/json", bytes.NewReader(body))
		},
		"GET /query": func() (*http.Response, error) {
			return http.Get(front.URL + "/query?sql=" + url.QueryEscape(`select * from Entities where "clean rooms"`) + "&plan=" + url.QueryEscape(entry))
		},
		"GET /topk": func() (*http.Response, error) {
			return http.Get(front.URL + "/topk?predicate=clean+rooms&plan=" + url.QueryEscape(entry))
		},
	} {
		resp, err := do()
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(env.Error, "plan") {
			t.Errorf("%s with a plan: status %d, error %q; want 400 naming the plan", name, resp.StatusCode, env.Error)
		}
	}
	if used, stale := f.counter(server.MetricPlanUsed), f.counter(server.MetricPlanStale); used+stale != 0 {
		t.Fatalf("a client plan reached the shards: used %d, stale %d", used, stale)
	}
}

// TestPlanSpan: the planning step is one span under the request's, saying
// whether the memo covered it and, if not, which shard planned at which
// sequence; the shard's /plan span joins the same trace.
func TestPlanSpan(t *testing.T) {
	col := trace.New(trace.Options{SampleRate: 1, SlowCutoff: time.Hour, Seed: 1})
	f := newPlanFleet(t, planFleetOptions{replicas: 1, trace: col})
	front := httptest.NewServer(router.NewHandler(f.rt))
	defer front.Close()
	get := func() {
		t.Helper()
		resp, err := http.Get(front.URL + "/topk?predicate=romantic+getaway&k=3")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	get()
	get()
	var cold, warm *trace.SpanJSON
	for _, tr := range col.Snapshot() {
		byID := map[string]trace.SpanJSON{}
		for _, s := range tr.Spans {
			byID[s.SpanID] = s
		}
		for i, s := range tr.Spans {
			if s.Name != "router.plan" {
				continue
			}
			if parent := byID[s.ParentID]; parent.Name != "router.topk" {
				t.Fatalf("router.plan is parented under %q, want router.topk", parent.Name)
			}
			if spanAttr(s, "cached") == "true" {
				warm = &tr.Spans[i]
				continue
			}
			cold = &tr.Spans[i]
			planned := false
			for _, o := range tr.Spans {
				planned = planned || o.Name == "server.plan"
			}
			if !planned {
				t.Fatalf("the shard's /plan span did not join the trace: %+v", tr.Spans)
			}
		}
	}
	if cold == nil || warm == nil {
		t.Fatalf("want one planned and one memo-served request; got cold=%v warm=%v", cold, warm)
	}
	if spanAttr(*cold, "cached") != "false" || spanAttr(*cold, "shard") == "" || spanAttr(*cold, "gen") != "0" {
		t.Fatalf("planned span attrs: %+v", cold.Attrs)
	}
}

func spanAttr(s trace.SpanJSON, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

package router

// Unit tests of the scatter-gather mechanics against scripted fake
// backends: heap-merge correctness (vs a naive reference merge), partial
// failure reporting, targeted evidence routing, and input validation.
// The real-fleet byte-identity contract is enforced in e2e_test.go.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// fakeBackend answers from a canned target → (status, body) table.
type fakeBackend struct {
	name    string
	replies map[string]fakeReply
	err     error // transport-level failure for every request
}

type fakeReply struct {
	status int
	body   interface{}
}

func (f *fakeBackend) Name() string { return f.name }

func (f *fakeBackend) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	if f.err != nil {
		return 0, nil, f.err
	}
	key := method + " " + target
	rep, ok := f.replies[key]
	if !ok {
		return 404, []byte(`{"error":"no such endpoint"}`), nil
	}
	b, err := json.Marshal(rep.body)
	if err != nil {
		return 0, nil, err
	}
	return rep.status, b, nil
}

// topkBackend builds a fake backend serving one /topk reply.
func topkBackend(name, target string, rows []server.RowJSON) *fakeBackend {
	return &fakeBackend{
		name: name,
		replies: map[string]fakeReply{
			"GET " + target: {status: 200, body: server.TopKResponse{Rows: rows, SortedAccesses: 5, Depth: 3, Candidates: len(rows)}},
		},
	}
}

func TestTopKPartialFailure(t *testing.T) {
	target := "/topk?predicate=clean&k=2"
	live := topkBackend("s0", target, []server.RowJSON{
		{EntityID: "a", Score: 0.9}, {EntityID: "b", Score: 0.5},
	})
	dead := &fakeBackend{name: "s1", err: fmt.Errorf("connection refused")}
	rt, err := New([]Shard{{Backend: live}, {Backend: dead}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.TopK(context.Background(), []string{"clean"}, 2)
	if err != nil {
		t.Fatalf("partial fleet should still answer: %v", err)
	}
	if !res.Partial {
		t.Error("result not marked partial")
	}
	if msg, ok := res.ShardErrors[1]; !ok || !strings.Contains(msg, "connection refused") {
		t.Errorf("shard 1 error not reported: %v", res.ShardErrors)
	}
	if len(res.Rows) != 2 || res.Rows[0].EntityID != "a" {
		t.Errorf("rows = %+v", res.Rows)
	}
}

func TestTopKAllShardsDown(t *testing.T) {
	dead := func(n string) *fakeBackend { return &fakeBackend{name: n, err: fmt.Errorf("down")} }
	rt, _ := New([]Shard{{Backend: dead("s0")}, {Backend: dead("s1")}}, Options{})
	if _, err := rt.TopK(context.Background(), []string{"clean"}, 2); err == nil {
		t.Fatal("total failure should error")
	} else if !strings.Contains(err.Error(), "every shard") {
		t.Fatalf("error %v should name the total failure", err)
	}
}

func TestQueryRejectsOrderBy(t *testing.T) {
	rt, _ := New([]Shard{{Backend: &fakeBackend{name: "s0"}}}, Options{})
	// Detection is from the parsed AST, so whitespace variants and casing
	// are all caught, and the typed error maps to a 400.
	for _, sql := range []string{
		`SELECT * FROM Entities WHERE "clean" ORDER BY price_pn`,
		"select * from Entities where \"clean\" order \t  by price_pn desc",
	} {
		_, err := rt.Query(context.Background(), sql, 5)
		if err == nil {
			t.Fatalf("%q: ORDER BY should be rejected", sql)
		}
		if !errors.Is(err, ErrBadQuery) {
			t.Fatalf("%q: got %v, want ErrBadQuery", sql, err)
		}
	}
	// Unparseable SQL is a client error too, not a fleet failure.
	if _, err := rt.Query(context.Background(), "selec nonsense", 5); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("parse failure: got %v, want ErrBadQuery", err)
	}
	// A predicate merely containing the words is fine (no substring
	// false positive); the fake backend answers with an empty result.
	fb := &fakeBackend{name: "s0", replies: map[string]fakeReply{}}
	body, _ := json.Marshal(server.QueryResponse{Rows: []server.RowJSON{}})
	fb.replies["POST /query"] = fakeReply{status: 200, body: json.RawMessage(body)}
	rt2, _ := New([]Shard{{Backend: fb}}, Options{})
	if _, err := rt2.Query(context.Background(), `SELECT * FROM Entities WHERE "lets you order by phone"`, 5); err != nil {
		t.Fatalf("predicate containing 'order by' was wrongly rejected: %v", err)
	}
}

func TestUnanimousRejectionIsClientError(t *testing.T) {
	// Shards replicate the same engine: when every shard answers 4xx, the
	// router must surface the monolith's 400, not a 502 fleet failure.
	reject := func(n string) *fakeBackend {
		return &fakeBackend{name: n, replies: map[string]fakeReply{}} // 404 for everything
	}
	rt, _ := New([]Shard{{Backend: reject("s0")}, {Backend: reject("s1")}}, Options{})
	_, err := rt.TopK(context.Background(), []string{"clean"}, 2)
	if !errors.Is(err, ErrBadQuery) {
		t.Fatalf("unanimous 4xx: got %v, want ErrBadQuery", err)
	}
	// Mixed transport failure + 4xx stays a fleet failure (the dead shard
	// might have answered differently).
	rt2, _ := New([]Shard{
		{Backend: reject("s0")},
		{Backend: &fakeBackend{name: "s1", err: fmt.Errorf("down")}},
	}, Options{})
	if _, err := rt2.TopK(context.Background(), []string{"clean"}, 2); errors.Is(err, ErrBadQuery) {
		t.Fatalf("mixed failure wrongly classified as client error: %v", err)
	}
}

func TestEvidenceForwardsExplicitZeroLimit(t *testing.T) {
	// limit=0 is a real mode (summary without extractions); the router
	// must forward it rather than letting the shard default to 3.
	target := "/evidence?entity=h0005&attribute=service&limit=0"
	owner := &fakeBackend{
		name: "s0",
		replies: map[string]fakeReply{
			"GET " + target: {status: 200, body: server.EvidenceResponse{EntityID: "h0005", Attribute: "service"}},
		},
	}
	rt, _ := New([]Shard{{Backend: owner, FirstEntity: "h0000", LastEntity: "h0009"}}, Options{})
	res, err := rt.Evidence(context.Background(), "h0005", "service", 0)
	if err != nil || res.Status != 200 {
		t.Fatalf("explicit limit=0 was not forwarded: res=%+v err=%v", res, err)
	}
}

func TestEvidenceServerErrorIsNotAMiss(t *testing.T) {
	// A shard answering 500 might be the owner; its failure must not be
	// folded into a confident 404.
	target := "/evidence?entity=h0005&attribute=service"
	broken := &fakeBackend{
		name: "s0",
		replies: map[string]fakeReply{
			"GET " + target: {status: 500, body: map[string]string{"error": "internal"}},
		},
	}
	miss := &fakeBackend{
		name: "s1",
		replies: map[string]fakeReply{
			"GET " + target: {status: 404, body: map[string]string{"error": "no summary"}},
		},
	}
	rt, _ := New([]Shard{{Backend: broken}, {Backend: miss}}, Options{})
	if _, err := rt.Evidence(context.Background(), "h0005", "service", -1); err == nil {
		t.Fatal("a 404 with a 500-ing shard should be an error, not a definitive miss")
	}
}

func TestEvidenceMissWithDeadShardIsNotDefinitive(t *testing.T) {
	// Without ownership ranges, a 404 is only trustworthy when every
	// shard answered; a dead shard might own the entity.
	target := "/evidence?entity=h0005&attribute=service"
	miss := &fakeBackend{
		name: "s0",
		replies: map[string]fakeReply{
			"GET " + target: {status: 404, body: map[string]string{"error": "no summary"}},
		},
	}
	dead := &fakeBackend{name: "s1", err: fmt.Errorf("connection refused")}
	rt, _ := New([]Shard{{Backend: miss}, {Backend: dead}}, Options{})
	if _, err := rt.Evidence(context.Background(), "h0005", "service", -1); err == nil {
		t.Fatal("a miss with an unreachable shard should be an error, not a confident 404")
	} else if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("error %v should explain the unreachable shard", err)
	}
}

func TestRankPredicatesRejectsUnroutableOptions(t *testing.T) {
	rt, _ := New([]Shard{{Backend: &fakeBackend{name: "s0"}}}, Options{})
	cases := map[string]func(*core.QueryOptions){
		"scan path": func(o *core.QueryOptions) { o.UseMarkers = false },
		"filter":    func(o *core.QueryOptions) { o.ReviewFilter = func(string, int) bool { return true } },
	}
	for name, mutate := range cases {
		opts := core.DefaultQueryOptions()
		mutate(&opts)
		if _, err := rt.Engine(context.Background()).RankPredicates([]string{"clean"}, nil, opts); err == nil {
			t.Errorf("%s: unroutable option silently accepted", name)
		}
	}
}

func TestEvidenceRoutesToOwner(t *testing.T) {
	target := "/evidence?entity=h0005&attribute=service"
	owner := &fakeBackend{
		name: "s1",
		replies: map[string]fakeReply{
			"GET " + target: {status: 200, body: server.EvidenceResponse{EntityID: "h0005", Attribute: "service"}},
		},
	}
	wrong := &fakeBackend{name: "s0", err: fmt.Errorf("must not be asked")}
	rt, _ := New([]Shard{
		{Backend: wrong, FirstEntity: "h0000", LastEntity: "h0004"},
		{Backend: owner, FirstEntity: "h0005", LastEntity: "h0009"},
	}, Options{})
	res, err := rt.Evidence(context.Background(), "h0005", "service", -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shard != 1 || res.Status != 200 {
		t.Fatalf("routed to shard %d status %d, want owner 1/200", res.Shard, res.Status)
	}
}

func TestEvidenceScattersWithoutRanges(t *testing.T) {
	target := "/evidence?entity=h0005&attribute=service"
	owner := &fakeBackend{
		name: "s1",
		replies: map[string]fakeReply{
			"GET " + target: {status: 200, body: server.EvidenceResponse{EntityID: "h0005", Attribute: "service"}},
		},
	}
	miss := &fakeBackend{
		name: "s0",
		replies: map[string]fakeReply{
			"GET " + target: {status: 404, body: map[string]string{"error": "no summary"}},
		},
	}
	rt, _ := New([]Shard{{Backend: miss}, {Backend: owner}}, Options{})
	res, err := rt.Evidence(context.Background(), "h0005", "service", -1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || res.Shard != 1 {
		t.Fatalf("scatter picked shard %d status %d, want 1/200", res.Shard, res.Status)
	}
}

func TestVerifyShardIdentities(t *testing.T) {
	shardBackend := func(name string, index, count int) *fakeBackend {
		return &fakeBackend{
			name: name,
			replies: map[string]fakeReply{
				"GET /healthz": {status: 200, body: server.HealthResponse{
					Status: "ok", Source: "snapshot",
					Snapshot: &server.SnapshotInfo{Shard: &server.ShardInfo{Index: index, Count: count}},
				}},
			},
		}
	}
	// Correct order passes.
	rt, _ := New([]Shard{
		{Backend: shardBackend("s0", 0, 2)},
		{Backend: shardBackend("s1", 1, 2)},
	}, Options{})
	if err := rt.VerifyShardIdentities(context.Background()); err != nil {
		t.Fatalf("ordered fleet rejected: %v", err)
	}
	// Swapped backends are caught before they can misroute /evidence.
	rt2, _ := New([]Shard{
		{Backend: shardBackend("s1", 1, 2)},
		{Backend: shardBackend("s0", 0, 2)},
	}, Options{})
	if err := rt2.VerifyShardIdentities(context.Background()); err == nil {
		t.Fatal("misordered backend list accepted")
	}
	// A backend from a different fleet size is caught too.
	rt3, _ := New([]Shard{
		{Backend: shardBackend("s0", 0, 4)},
		{Backend: shardBackend("s1", 1, 4)},
	}, Options{})
	if err := rt3.VerifyShardIdentities(context.Background()); err == nil {
		t.Fatal("wrong-fleet backend accepted")
	}
	// Unreachable backends are skipped (replicas may still be starting).
	rt4, _ := New([]Shard{
		{Backend: shardBackend("s0", 0, 2)},
		{Backend: &fakeBackend{name: "s1", err: fmt.Errorf("starting up")}},
	}, Options{})
	if err := rt4.VerifyShardIdentities(context.Background()); err != nil {
		t.Fatalf("unreachable backend should be skipped: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("no shards should fail")
	}
	if _, err := New([]Shard{{}}, Options{}); err == nil {
		t.Error("nil backend should fail")
	}
}

// planningBackend answers /plan with a stage-1 entry per predicate and
// records every other request it serves.
type planningBackend struct {
	name string
	gen  uint64
	mu   sync.Mutex
	seen []string // "METHOD target\nbody"
}

func (b *planningBackend) Name() string { return b.name }

func (b *planningBackend) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	if target == "/plan" {
		var req server.PlanRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return 400, []byte(`{"error":"bad plan request"}`), nil
		}
		resp := server.PlanResponse{Gen: b.gen}
		for _, p := range req.Predicates {
			resp.Entries = append(resp.Entries, server.PlanEntry{
				Predicate: p, Method: "w2v", Terms: []server.PlanTerm{{Attr: "a", Marker: 1}}, Similarity: 0.5, Gen: b.gen,
			})
		}
		out, err := json.Marshal(resp)
		return 200, out, err
	}
	b.mu.Lock()
	b.seen = append(b.seen, method+" "+target+"\n"+string(body))
	b.mu.Unlock()
	return 200, []byte(`{"rows":[]}`), nil
}

// TestPlanHopFailsOverAndShips: with the predicate's home shard down, the
// next shard plans; the entry then rides on every leg — as a `plan`
// parameter of /topk and in /query's body — and the second request plans
// from the memo.
func TestPlanHopFailsOverAndShips(t *testing.T) {
	const pred = "clean rooms"
	live := &planningBackend{name: "live", gen: 7}
	down := &fakeBackend{name: "down", err: fmt.Errorf("connection refused")}
	shards := []Shard{{Backend: live}, {Backend: live}}
	shards[homeShard(pred, 2)].Backend = down
	rt, err := New(shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := rt.TopK(ctx, []string{pred}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Query(ctx, `select * from Entities where "`+pred+`"`, 3); err != nil {
		t.Fatal(err)
	}
	if hits, misses := rt.metrics.planHits.Value(), rt.metrics.planMisses.Value(); hits != 1 || misses != 1 {
		t.Fatalf("plan memo: %d hits, %d misses, want 1 and 1", hits, misses)
	}
	entry, err := json.Marshal(server.PlanEntry{
		Predicate: pred, Method: "w2v", Terms: []server.PlanTerm{{Attr: "a", Marker: 1}}, Similarity: 0.5, Gen: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTopK := "GET /topk?predicate=clean+rooms&k=3&plan=" + url.QueryEscape(string(entry)) + "\n"
	wantQuery := `POST /query` + "\n" + `{"sql":"select * from Entities where \"clean rooms\"","k":3,"plan":[` + string(entry) + `]}`
	if len(live.seen) != 2 || live.seen[0] != wantTopK || live.seen[1] != wantQuery {
		t.Fatalf("legs carried:\n%q\nwant:\n%q\n%q", live.seen, wantTopK, wantQuery)
	}
}

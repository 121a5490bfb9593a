package router

// Router micro-benchmarks: scatter + fragment walk + bounded-heap merge
// over synthetic shard backends (no engine work, isolating the router's own
// overhead), and the heap merge alone. The end-to-end router-vs-monolith
// overhead on a real corpus is the repository benchmark's read_hot
// ladder (bench/), which prices the same request at core and through the
// router.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// rawBackend answers every read with fixed pre-marshaled bytes, and /plan
// with stage-1 entries so the router's memo warms as it does in production.
type rawBackend struct {
	name string
	body []byte
}

func (b *rawBackend) Name() string { return b.name }
func (b *rawBackend) Do(ctx context.Context, method, target string, body []byte) (int, []byte, error) {
	if target != "/plan" {
		return 200, b.body, nil
	}
	var req server.PlanRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return 400, nil, nil
	}
	var resp server.PlanResponse
	for _, p := range req.Predicates {
		resp.Entries = append(resp.Entries, server.PlanEntry{Predicate: p, Method: "w2v"})
	}
	out, err := json.Marshal(resp)
	return 200, out, err
}

// shardRows fabricates one shard's ranked top-k list.
func shardRows(rng *rand.Rand, shard, k int) []server.RowJSON {
	rows := make([]server.RowJSON, k)
	score := 1.0
	for i := range rows {
		score *= 0.9 + 0.1*rng.Float64()
		rows[i] = server.RowJSON{EntityID: fmt.Sprintf("h%02d%04d", shard, i), Score: score}
	}
	return rows
}

// benchFrontDoor drives one request shape through the router's HTTP
// handler over 1–8 synthetic shards, each answering what answer builds.
func benchFrontDoor(b *testing.B, method, target, reqBody string, answer func(rng *rand.Rand, shard int) interface{}) {
	const k = 10
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			fleet := make([]Shard, shards)
			for i := range fleet {
				body, err := json.Marshal(answer(rng, i))
				if err != nil {
					b.Fatal(err)
				}
				fleet[i] = Shard{Backend: &rawBackend{name: fmt.Sprintf("s%d", i), body: body}}
			}
			rt, err := New(fleet, Options{})
			if err != nil {
				b.Fatal(err)
			}
			front := NewHandler(rt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var rec server.MemResponse
				front.ServeHTTP(&rec, httptest.NewRequest(method, target, strings.NewReader(reqBody)))
				if rec.Status() != 200 || bytes.Count(rec.Body(), []byte(`"entity_id"`)) != k {
					b.Fatalf("status %d: %s", rec.Status(), rec.Body())
				}
			}
		})
	}
}

func BenchmarkRouterTopK(b *testing.B) {
	benchFrontDoor(b, "GET", "/topk?predicate=spotless+rooms&predicate=friendly+staff&k=10", "",
		func(rng *rand.Rand, shard int) interface{} {
			return server.TopKResponse{Rows: shardRows(rng, shard, 10), SortedAccesses: 40, Depth: 12, Candidates: 30}
		})
}

func BenchmarkRouterQuery(b *testing.B) {
	preds := []string{"spotless rooms", "friendly staff"}
	benchFrontDoor(b, "POST", "/query", `{"sql":"select * from Entities where \"spotless rooms\" and \"friendly staff\"","k":10}`,
		func(rng *rand.Rand, shard int) interface{} {
			resp := server.QueryResponse{
				Rewritten:       "(cleanliness.4 ⊗ staff.3)",
				Interpretations: map[string]server.InterpretationJSON{},
				Rows:            shardRows(rng, shard, 10),
			}
			for _, p := range preds {
				resp.Interpretations[p] = server.InterpretationJSON{Predicate: p, Method: "w2v", Rendered: "cleanliness.4", Terms: []string{"cleanliness.4"}, Similarity: 0.83}
			}
			for i := range resp.Rows {
				resp.Rows[i].Name = "Hotel " + resp.Rows[i].EntityID
				resp.Rows[i].PredicateScores = map[string]float64{preds[0]: rng.Float64(), preds[1]: rng.Float64()}
			}
			return resp
		})
}

func BenchmarkMergeRows(b *testing.B) {
	for _, shards := range []int{2, 4, 8, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			lists := make([][]rowSpan, shards)
			for i := range lists {
				body, err := json.Marshal(server.TopKResponse{Rows: shardRows(rng, i, 1000)})
				if err != nil {
					b.Fatal(err)
				}
				f, _, err := scanFragment(body, nil)
				if err != nil {
					b.Fatal(err)
				}
				lists[i] = f.rows
			}
			heap := make([][]rowSpan, shards)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(heap, lists) // the merge consumes its cursors
				if rows := mergeRows(heap, 10); len(rows) != 10 {
					b.Fatal("bad merge")
				}
			}
		})
	}
}

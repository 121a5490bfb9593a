package router_test

// The wire path end to end: what the front door writes, byte for byte, and
// what a hot routed query may allocate.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/router"
	"repro/internal/server"
)

var elapsedRE = regexp.MustCompile(`"elapsed_ms":[-+.e0-9]+`)

// workStatsRE matches /topk's work counters: fleet totals, not the
// monolith's single TA run.
var workStatsRE = regexp.MustCompile(`"(sorted_accesses|depth|candidates)":\d+`)

// serve runs one request against h in process.
func serve(t testing.TB, h http.Handler, method, target, body string) []byte {
	t.Helper()
	var rec server.MemResponse
	h.ServeHTTP(&rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	if rec.Status() != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, target, rec.Status(), rec.Body())
	}
	return rec.Body()
}

// inProcessFleet is the fixture's four shards behind LocalBackends: the
// `opinedbd -router` shape.
func inProcessFleet(t testing.TB) http.Handler {
	t.Helper()
	rt, _, err := router.FromManifest(e2eManifest, router.ManifestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return router.NewHandler(rt)
}

// TestRoutedBytesEqualMonolith: spliced from shard fragments or encoded by
// one server, the answer is the same bytes once the clock is taken out.
func TestRoutedBytesEqualMonolith(t *testing.T) {
	d, db, m, urls := e2eFixture(t)
	monolith := server.New(db, server.Options{})
	var preds []string
	for _, p := range d.Predicates {
		if p.Kind != corpus.KindOutOfSchema && len(preds) < 3 {
			preds = append(preds, p.Text)
		}
	}
	targets := []string{
		"/interpret?predicate=" + url.QueryEscape(preds[0]),
		"/topk?k=7&" + url.Values{"predicate": preds[:2]}.Encode(),
	}
	for _, sql := range []string{
		`SELECT * FROM Entities WHERE "` + preds[0] + `"`,
		`select * from Entities where "` + preds[0] + `" limit 3`,
		`select * from Entities where "` + preds[0] + `" and "` + preds[1] + `"`,
		`select * from Entities where ("` + preds[0] + `" or "` + preds[1] + `") and not "` + preds[2] + `"`,
		`select * from Entities where price_pn < 250 and "` + preds[1] + `"`,
		`select * from Entities where price_pn < 0 and "` + preds[1] + `"`, // no rows anywhere
	} {
		targets = append(targets, "/query?k=12&sql="+url.QueryEscape(sql))
	}
	fleets := map[string]http.Handler{
		"http":       router.NewHandler(fleetRouter(t, m, urls)),
		"in-process": inProcessFleet(t),
	}
	for _, target := range targets {
		want := elapsedRE.ReplaceAll(serve(t, monolith, "GET", target, ""), nil)
		for name, fleet := range fleets {
			got := elapsedRE.ReplaceAll(serve(t, fleet, "GET", target, ""), nil)
			if strings.HasPrefix(target, "/topk") {
				got, want = workStatsRE.ReplaceAll(got, nil), workStatsRE.ReplaceAll(want, nil)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s fleet, %s:\n routed   %s\n monolith %s", name, target, got, want)
			}
		}
	}
}

// nanShard is a shard whose engine produced a non-finite score.
var nanShard = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, &server.TopKResponse{Rows: []server.RowJSON{{EntityID: "z", Score: math.NaN()}}})
})

// handlerBackend serves a router leg from any http.Handler.
type handlerBackend struct{ h http.Handler }

func (handlerBackend) Name() string { return "handler" }
func (b handlerBackend) Do(_ context.Context, method, target string, body []byte) (int, []byte, error) {
	var rec server.MemResponse
	b.h.ServeHTTP(&rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec.Status(), rec.Body(), nil
}

// The router tier of the failed-encode fix: the shard's 500 is a shard
// failure at the front door — partial beside a healthy shard, 502 alone —
// never a 200 with a truncated body to merge.
func TestNaNScoreAtTheFrontDoor(t *testing.T) {
	healthy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		server.WriteJSON(w, http.StatusOK, &server.TopKResponse{Rows: []server.RowJSON{{EntityID: "a", Score: 0.5}}})
	})
	front := func(shards ...http.Handler) http.Handler {
		fleet := make([]router.Shard, len(shards))
		for i, h := range shards {
			fleet[i] = router.Shard{Backend: handlerBackend{h}}
		}
		rt, err := router.New(fleet, router.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return router.NewHandler(rt)
	}
	var res router.TopKResult
	if err := json.Unmarshal(serve(t, front(healthy, nanShard), "GET", "/topk?predicate=x", ""), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Partial || !strings.Contains(res.ShardErrors[1], "status 500") || !strings.Contains(res.ShardErrors[1], "unsupported value") ||
		len(res.Rows) != 1 || res.Rows[0].EntityID != "a" {
		t.Errorf("partial answer = %+v", res)
	}
	var rec server.MemResponse
	front(nanShard).ServeHTTP(&rec, httptest.NewRequest("GET", "/topk?predicate=x", nil))
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body(), &env); rec.Status() != http.StatusBadGateway || err != nil || env.Error == "" {
		t.Errorf("all-NaN fleet: status %d body %q (decode: %v)", rec.Status(), rec.Body(), err)
	}
}

// TestHotRoutedQueryAllocations is the ceiling the wire path is held to: a
// planned, cached /query through four in-process shards, measured at 438
// allocations per request (464 under -race, where sync.Pool drops items; it
// was 984 when the front door decoded every row). Forty rows reach the
// router per request, so a map or a decoded row apiece lands above the
// ceiling.
func TestHotRoutedQueryAllocations(t *testing.T) {
	d, _, _, _ := e2eFixture(t)
	fleet := inProcessFleet(t)
	var pred string
	for _, p := range d.Predicates {
		if p.Kind != corpus.KindOutOfSchema {
			pred = p.Text
			break
		}
	}
	body, _ := json.Marshal(server.QueryRequest{SQL: `select * from Entities where "` + pred + `"`, K: 10})
	run := func() {
		var rec server.MemResponse
		fleet.ServeHTTP(&rec, httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
		if rec.Status() != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Status(), rec.Body())
		}
	}
	run() // plan and warm
	const ceiling = 500
	if allocs := testing.AllocsPerRun(50, run); allocs > ceiling {
		t.Errorf("hot routed /query: %.0f allocations per request, ceiling %d", allocs, ceiling)
	} else {
		t.Logf("hot routed /query: %.0f allocations per request (ceiling %d)", allocs, ceiling)
	}
}

package server_test

// Tests of the serving-side observability surface: the /metrics
// exposition, the /topk fragment memo (hit/miss/invalidate and
// byte-identical answers), and the incremental /journal/status path
// agreeing with the on-disk scans it replaced.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/server"
)

// metricsServer clones the shared fixture (so writes stay local to the
// test) and serves it with volatile ingestion and a caller-owned
// registry.
func metricsServer(t *testing.T) (*core.DB, *obs.Registry, *httptest.Server) {
	t.Helper()
	clone, _ := cloneFixture(t)
	reg := obs.NewRegistry()
	srv := httptest.NewServer(server.New(clone, server.Options{
		Ingest:  &server.IngestOptions{},
		Metrics: reg,
	}))
	t.Cleanup(srv.Close)
	return clone, reg, srv
}

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpointServesInstrumentedFamilies(t *testing.T) {
	db, _, srv := metricsServer(t)
	// The one /query below scans every entity once per interpreted term.
	scanned := len(db.EntityIDs())
	degrees := scanned * max(1, len(db.Interpret("clean rooms").Terms))
	// Drive each instrumented path once.
	getJSON(t, srv.URL+"/query?sql="+`select+*+from+Entities+where+"clean+rooms"+limit+3`, http.StatusOK, nil)
	getJSON(t, srv.URL+"/topk?predicate=clean+rooms&k=3", http.StatusOK, nil)
	postReview(t, srv.URL, server.ReviewRequest{
		ID: "m-1", EntityID: db.EntityIDs()[0], Text: "spotless rooms and friendly staff",
	})

	text := scrape(t, srv.URL)
	for _, want := range []string{
		`opinedb_http_request_seconds_bucket{endpoint="query",le="+Inf"}`,
		`opinedb_http_request_seconds_bucket{endpoint="topk",le="+Inf"}`,
		`opinedb_http_request_seconds_bucket{endpoint="reviews",le="+Inf"}`,
		`opinedb_http_request_seconds_p99{endpoint="query"}`,
		`opinedb_stage_seconds_bucket{le="+Inf",stage="engine_query"}`,
		`opinedb_stage_seconds_bucket{le="+Inf",stage="engine_topk"}`,
		`opinedb_stage_seconds_bucket{le="+Inf",stage="apply"}`,
		"opinedb_topk_memo_misses_total 1",
		"opinedb_http_requests_total{endpoint=\"query\"} 1",
		fmt.Sprintf("%s %d", server.MetricQueryEntitiesScanned, scanned),
		fmt.Sprintf("%s %d", server.MetricQueryDegrees, degrees),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestTopKMemoHitMissInvalidate(t *testing.T) {
	db, reg, srv := metricsServer(t)
	url := srv.URL + "/topk?predicate=clean+rooms&predicate=friendly+staff&k=5"

	fetch := func(wantMemo string) server.TopKResponse {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Topk-Memo"); got != wantMemo {
			t.Fatalf("X-Topk-Memo = %q, want %q", got, wantMemo)
		}
		var tr server.TopKResponse
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	first := fetch("miss")
	second := fetch("hit")
	// The memoized answer must be identical, ElapsedMs aside.
	first.ElapsedMs, second.ElapsedMs = 0, 0
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("memo hit diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
	if hits := reg.Counter(server.MetricTopKMemoHits, "").Value(); hits != 1 {
		t.Fatalf("memo hits = %d, want 1", hits)
	}

	// Any applied write — including one for an entity this request never
	// ranked — drops every fragment.
	postReview(t, srv.URL, server.ReviewRequest{
		ID: "m-inv", EntityID: db.EntityIDs()[1], Text: "dirty rooms, rude staff",
	})
	third := fetch("miss")
	if misses := reg.Counter(server.MetricTopKMemoMisses, "").Value(); misses != 2 {
		t.Fatalf("memo misses = %d, want 2", misses)
	}
	// After the write the recomputed fragment reflects the new state —
	// rows come back (the predicate set still ranks) but via the engine.
	if len(third.Rows) == 0 {
		t.Fatal("post-invalidation topk returned no rows")
	}
}

func TestTopKMemoDisabled(t *testing.T) {
	_, db, _ := testServer(t)
	srv := httptest.NewServer(server.New(db, server.Options{DisableTopKMemo: true}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/topk?predicate=clean+rooms&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if h := resp.Header.Get("X-Topk-Memo"); h != "" {
		t.Fatalf("X-Topk-Memo = %q with the memo disabled", h)
	}
}

// TestJournalStatusIncrementalMatchesScan: the chain-served status must
// agree exactly with the on-disk scans it replaced, full-journal and
// ?at=K alike.
func TestJournalStatusIncrementalMatchesScan(t *testing.T) {
	db, jdir, srv := journaledServer(t)
	ids := db.EntityIDs()
	for i := 0; i < 5; i++ {
		postReview(t, srv.URL, server.ReviewRequest{
			ID: fmt.Sprintf("inc-%d", i), EntityID: ids[i%len(ids)],
			Text: "quiet rooms, lovely breakfast, gorgeous view",
		})
	}

	st, err := journal.StatDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	var full server.JournalStatusResponse
	getJSON(t, srv.URL+"/journal/status", http.StatusOK, &full)
	if full.LastSeq != st.LastSeq || full.Records != st.Records ||
		full.Segments != st.Segments || full.PrefixHash != st.PrefixHash || full.HashSeq != st.LastSeq {
		t.Fatalf("incremental status %+v disagrees with StatDir %+v", full, st)
	}

	for at := uint64(1); at <= st.LastSeq+2; at++ {
		wantHash, wantSeq, err := journal.PrefixHashAt(jdir, at)
		if err != nil {
			t.Fatal(err)
		}
		var got server.JournalStatusResponse
		getJSON(t, fmt.Sprintf("%s/journal/status?at=%d", srv.URL, at), http.StatusOK, &got)
		if got.PrefixHash != wantHash || got.HashSeq != wantSeq {
			t.Fatalf("at=%d: (%s, %d), want (%s, %d)", at, got.PrefixHash, got.HashSeq, wantHash, wantSeq)
		}
	}
}

// TestInterpretationsCountedByStage: every predicate a server resolves
// itself — on /plan, on /interpret, and on /query and /topk where no usable
// plan entry covers it — counts once under the stage that answered; a
// predicate a shipped entry resolved does not.
func TestInterpretationsCountedByStage(t *testing.T) {
	db, reg, srv := metricsServer(t)
	w2v := predicateOf(t, db, core.MethodW2V)
	mined := predicateOf(t, db, core.MethodCooccur)
	fallback := predicateOf(t, db, core.MethodFallback)
	counts := func() [3]uint64 {
		var c [3]uint64
		for i, m := range []core.Method{core.MethodW2V, core.MethodCooccur, core.MethodFallback} {
			c[i] = reg.Counter(server.MetricInterpretations, "", obs.L("method", string(m))).Value()
		}
		return c
	}
	step := func(what string, want [3]uint64, do func()) {
		t.Helper()
		before := counts()
		do()
		after := counts()
		for i := range want {
			if after[i]-before[i] != want[i] {
				t.Fatalf("%s: w2v/cooccur/fallback moved by %d/%d/%d, want %v",
					what, after[0]-before[0], after[1]-before[1], after[2]-before[2], want)
			}
		}
	}
	sql := `select * from Entities where "` + w2v + `" and "` + mined + `"`
	var plan server.PlanResponse
	step("/plan over a stage-1 and a stage-2 predicate", [3]uint64{1, 1, 0}, func() {
		plan = fetchPlan(t, srv.URL, w2v, mined)
	})
	step("/interpret of an out-of-schema predicate", [3]uint64{0, 0, 1}, func() {
		getJSON(t, srv.URL+"/interpret?predicate="+url.QueryEscape(fallback), http.StatusOK, nil)
	})
	step("/query without a plan", [3]uint64{1, 1, 0}, func() {
		answer(t, srv.URL+"/query", server.QueryRequest{SQL: sql, K: 3})
	})
	// A volatile node takes the frozen stage-1 entry and sets the stage-2
	// one aside, so only the latter is resolved here.
	step("/query with a plan", [3]uint64{0, 1, 0}, func() {
		answer(t, srv.URL+"/query", server.QueryRequest{SQL: sql, K: 3, Plan: shipped(t, plan.Entries...)})
	})
	step("/topk without a plan", [3]uint64{0, 0, 1}, func() {
		getJSON(t, srv.URL+topkTarget(3, []string{fallback}, nil), http.StatusOK, nil)
	})
	step("/topk with a stage-1 plan", [3]uint64{0, 0, 0}, func() {
		getJSON(t, srv.URL+topkTarget(3, []string{w2v}, shipped(t, plan.Entries[0])), http.StatusOK, nil)
	})
	if text, want := scrape(t, srv.URL), server.MetricInterpretations+`{method="cooccur"} 3`; !strings.Contains(text, want) {
		t.Errorf("exposition missing %q", want)
	}
}

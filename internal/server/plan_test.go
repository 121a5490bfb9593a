package server_test

// Shipped plans at the shard surface: the wire form is lossless, the two
// validity rules decide what a request uses, and a plan is untrusted
// input that can neither crash the engine nor change what another request
// sees.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// postJSON posts body to url and returns the status, headers and payload.
func postJSON(t *testing.T, url string, body interface{}) (int, http.Header, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, payload
}

var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)

// answer posts a request that must succeed and returns its payload with
// the wall-clock field blanked.
func answer(t *testing.T, url string, body interface{}) string {
	t.Helper()
	status, _, payload := postJSON(t, url, body)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, status, payload)
	}
	return blankElapsed(payload)
}

// shipped encodes entries as request bodies carry them.
func shipped(t *testing.T, entries ...server.PlanEntry) []json.RawMessage {
	t.Helper()
	raw := make([]json.RawMessage, len(entries))
	for i, e := range entries {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		raw[i] = b
	}
	return raw
}

// topkTarget renders a GET /topk target carrying a plan.
func topkTarget(k int, predicates []string, plan []json.RawMessage) string {
	q := url.Values{"predicate": predicates, "k": {strconv.Itoa(k)}}
	for _, e := range plan {
		q.Add("plan", string(e))
	}
	return "/topk?" + q.Encode()
}

// getBody fetches url and returns the status, headers and payload.
func getBody(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, payload
}

// blankElapsed zeroes the wall-clock field, so two answers compare byte
// for byte.
func blankElapsed(payload []byte) string {
	return elapsedField.ReplaceAllString(string(payload), `"elapsed_ms":0`)
}

// counter reads one unlabeled counter off the server's /metrics.
func counter(t *testing.T, base, name string) uint64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindStringSubmatch(scrape(t, base))
	if m == nil {
		t.Fatalf("/metrics has no %s", name)
	}
	n, _ := strconv.ParseUint(m[1], 10, 64)
	return n
}

// fetchPlan asks the server's /plan for the predicates.
func fetchPlan(t *testing.T, base string, predicates ...string) server.PlanResponse {
	t.Helper()
	status, _, payload := postJSON(t, base+"/plan", server.PlanRequest{Predicates: predicates})
	if status != http.StatusOK {
		t.Fatalf("POST /plan: status %d: %s", status, payload)
	}
	var resp server.PlanResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// predicateOf finds a bank predicate the engine interprets with method.
func predicateOf(t *testing.T, db *core.DB, method core.Method) string {
	t.Helper()
	for _, p := range fixData.Predicates {
		if db.Interpret(p.Text).Method == method {
			return p.Text
		}
	}
	t.Fatalf("the predicate bank has no %s predicate", method)
	return ""
}

// forge returns a schema-valid entry for predicate that is not the
// engine's interpretation: a cooccur reading over one attribute's last
// marker, stamped with gen.
func forge(db *core.DB, predicate string, gen uint64) server.PlanEntry {
	attr := db.Attrs[len(db.Attrs)-1]
	return server.NewPlanEntry(core.Interpretation{
		Predicate:   predicate,
		Method:      core.MethodCooccur,
		Terms:       []core.AttrMarker{{Attr: attr.Name, Marker: len(attr.Markers) - 1}},
		Disjunction: true,
		Similarity:  0.25,
	}, gen)
}

// TestPlanRoundTripLossless: every interpretation of the predicate bank
// survives NewPlanEntry → JSON → Interpretation unchanged — terms,
// connective, matched phrase and the similarity's float bits — and /plan
// returns exactly those entries, in request order, at the node's sequence.
func TestPlanRoundTripLossless(t *testing.T) {
	d, db, srv := testServer(t)
	var predicates []string
	methods := map[core.Method]int{}
	for _, p := range d.Predicates {
		in := db.Interpret(p.Text)
		methods[in.Method]++
		predicates = append(predicates, p.Text)
		wire, err := json.Marshal(server.NewPlanEntry(in, 7))
		if err != nil {
			t.Fatalf("%q: %v", p.Text, err)
		}
		var e server.PlanEntry
		if err := json.Unmarshal(wire, &e); err != nil {
			t.Fatalf("%q: %v", p.Text, err)
		}
		back := e.Interpretation()
		if !reflect.DeepEqual(back, in) || math.Float64bits(back.Similarity) != math.Float64bits(in.Similarity) {
			t.Errorf("%q: round trip %+v, want %+v", p.Text, back, in)
		}
		if e.Gen != 7 || e.Frozen() != (in.Method == core.MethodW2V) {
			t.Errorf("%q: gen %d frozen %v for method %s", p.Text, e.Gen, e.Frozen(), in.Method)
		}
	}
	if methods[core.MethodW2V] == 0 || methods[core.MethodCooccur] == 0 || methods[core.MethodFallback] == 0 {
		t.Fatalf("the bank does not reach every stage: %v", methods)
	}

	plan := fetchPlan(t, srv.URL, predicates...)
	if plan.Gen != 0 || len(plan.Entries) != len(predicates) {
		t.Fatalf("/plan: gen %d, %d entries for %d predicates", plan.Gen, len(plan.Entries), len(predicates))
	}
	for i, e := range plan.Entries {
		if want := db.Interpret(predicates[i]); !reflect.DeepEqual(e.Interpretation(), want) || e.Gen != plan.Gen {
			t.Errorf("/plan entry %d: %+v, want %+v at gen %d", i, e, want, plan.Gen)
		}
	}
}

// TestShippedPlanValidity walks the two rules on a journaled node: at the
// planning sequence every entry is used and the answers are the local
// ones; after a write the stage-1 entry is still used while the stage-2/3
// entry is set aside and interpreted locally.
func TestShippedPlanValidity(t *testing.T) {
	db, _, srv := journaledServer(t)
	frozen := predicateOf(t, db, core.MethodW2V)
	mined := predicateOf(t, db, core.MethodCooccur)
	query := func(plan []server.PlanEntry) string {
		return answer(t, srv.URL+"/query", server.QueryRequest{
			SQL: `select * from Entities where "` + frozen + `" and "` + mined + `"`, K: 5, Plan: shipped(t, plan...)})
	}
	topk := func(plan []server.PlanEntry) string {
		t.Helper()
		status, _, payload := getBody(t, srv.URL+topkTarget(5, []string{frozen, mined}, shipped(t, plan...)))
		if status != http.StatusOK {
			t.Fatalf("GET /topk: status %d: %s", status, payload)
		}
		return blankElapsed(payload)
	}
	used := func() uint64 { return counter(t, srv.URL, server.MetricPlanUsed) }
	stale := func() uint64 { return counter(t, srv.URL, server.MetricPlanStale) }

	plan := fetchPlan(t, srv.URL, frozen, mined)
	if plan.Gen != 0 {
		t.Fatalf("fresh journal plans at gen %d", plan.Gen)
	}
	wantQuery, wantTopK := query(nil), topk(nil)
	if got := query(plan.Entries); got != wantQuery {
		t.Fatalf("/query with a plan diverged:\n got %s\nwant %s", got, wantQuery)
	}
	if got := topk(plan.Entries); got != wantTopK {
		t.Fatalf("/topk with a plan diverged:\n got %s\nwant %s", got, wantTopK)
	}
	if used() != 4 || stale() != 0 {
		t.Fatalf("at the planning gen: used %d stale %d, want 4 and 0", used(), stale())
	}
	// The gen rule is live: a different stage-2 entry AT the node's gen is
	// what the query runs under.
	if got := query([]server.PlanEntry{forge(db, mined, 0)}); got == wantQuery {
		t.Fatal("an entry at the node's gen was not used")
	}

	ack := postReview(t, srv.URL, server.ReviewRequest{
		ID: "plan-w1", EntityID: db.EntityIDs()[0], Text: "A romantic getaway with spotless rooms and lovely staff.",
	})
	if ack.Seq != 1 {
		t.Fatalf("write landed at seq %d", ack.Seq)
	}
	usedBefore, staleBefore := used(), stale()
	wantQuery, wantTopK = query(nil), topk(nil)
	// The old plan: its stage-1 entry still applies, its stage-2 entry is
	// stale and must be ignored — even when it is not what the node would
	// compute, which is what proves it was ignored.
	old := []server.PlanEntry{plan.Entries[0], forge(db, mined, 0)}
	if got := query(old); got != wantQuery {
		t.Fatalf("/query with a stale plan diverged:\n got %s\nwant %s", got, wantQuery)
	}
	if got := topk(old); got != wantTopK {
		t.Fatalf("/topk with a stale plan diverged:\n got %s\nwant %s", got, wantTopK)
	}
	if u, s := used()-usedBefore, stale()-staleBefore; u != 2 || s != 2 {
		t.Fatalf("after the write: used +%d stale +%d, want +2 and +2", u, s)
	}
	if fresh := fetchPlan(t, srv.URL, mined); fresh.Gen != 1 || fresh.Entries[0].Gen != 1 {
		t.Fatalf("/plan after the write reports gen %d (entry %d), want 1", fresh.Gen, fresh.Entries[0].Gen)
	}
}

// TestVolatileIngestNeverMatchesGen: a node ingesting without a journal
// has no sequence — its applied seq stays 0 through every write — so it
// takes stage-1 entries only.
func TestVolatileIngestNeverMatchesGen(t *testing.T) {
	db, reg, srv := metricsServer(t)
	mined := predicateOf(t, db, core.MethodCooccur)
	req := server.QueryRequest{SQL: `select * from Entities where "` + mined + `"`, K: 5}
	want := answer(t, srv.URL+"/query", req)
	req.Plan = shipped(t, forge(db, mined, 0))
	if got := answer(t, srv.URL+"/query", req); got != want {
		t.Fatalf("a volatile node used a gen-0 entry:\n got %s\nwant %s", got, want)
	}
	if s := reg.Counter(server.MetricPlanStale, "").Value(); s != 1 {
		t.Fatalf("stale counter = %d, want 1", s)
	}
}

// TestPlanRejectsMalformedEntries: an entry that does not fit the schema
// is a 400 on both endpoints, before the engine sees it.
func TestPlanRejectsMalformedEntries(t *testing.T) {
	_, db, srv := testServer(t)
	attr := db.Attrs[0]
	const pred = "has really clean rooms"
	entry := func(method, attrName string, marker int) server.PlanEntry {
		return server.PlanEntry{Predicate: pred, Method: method, Terms: []server.PlanTerm{{Attr: attrName, Marker: marker}}}
	}
	for name, e := range map[string]server.PlanEntry{
		"unknown attribute":   entry("w2v", "no_such_attribute", 0),
		"marker past the end": entry("w2v", attr.Name, len(attr.Markers)),
		"negative marker":     entry("cooccur", attr.Name, -1),
		"unknown method":      entry("oracle", attr.Name, 0),
		"fallback with terms": entry("fallback", attr.Name, 0),
		"w2v without terms":   {Predicate: pred, Method: "w2v"},
		"no predicate":        {Method: "fallback"},
	} {
		plan := shipped(t, e)
		if status, _, body := postJSON(t, srv.URL+"/query", server.QueryRequest{SQL: `select * from Entities where "` + pred + `"`, Plan: plan}); status != http.StatusBadRequest {
			t.Errorf("%s: /query status %d: %s", name, status, body)
		}
		if status, _, body := getBody(t, srv.URL+topkTarget(5, []string{pred}, plan)); status != http.StatusBadRequest {
			t.Errorf("%s: /topk status %d: %s", name, status, body)
		}
	}
	// Entries that are not PlanEntry JSON at all.
	for name, raw := range map[string]string{
		"not json":      `{"predicate":`,
		"unknown field": `{"predicate":"` + pred + `","method":"fallback","similarity":0,"gen":0,"trusted":true}`,
		"wrong type":    `{"predicate":7}`,
	} {
		if status, _, body := getBody(t, srv.URL+topkTarget(5, []string{pred}, []json.RawMessage{json.RawMessage(raw)})); status != http.StatusBadRequest {
			t.Errorf("%s: /topk status %d: %s", name, status, body)
		}
	}
}

// TestTopKMemoKeyedByInterpretation: a fragment computed under a shipped
// interpretation is memoized under that interpretation, so it can answer
// the same plan again but never a request that interprets locally.
func TestTopKMemoKeyedByInterpretation(t *testing.T) {
	db, _, srv := metricsServer(t)
	pred := predicateOf(t, db, core.MethodW2V)
	honest := db.Interpret(pred)
	n := len(db.Attr(honest.Terms[0].Attr).Markers)
	forged := honest
	forged.Terms = []core.AttrMarker{{Attr: honest.Terms[0].Attr, Marker: (honest.Terms[0].Marker + n/2) % n}}

	get := func(plan []json.RawMessage, wantMemo string) string {
		t.Helper()
		status, hdr, payload := getBody(t, srv.URL+topkTarget(5, []string{pred}, plan))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, payload)
		}
		if got := hdr.Get("X-Topk-Memo"); got != wantMemo {
			t.Fatalf("X-Topk-Memo = %q, want %q", got, wantMemo)
		}
		return blankElapsed(payload)
	}
	forgedPlan := shipped(t, server.NewPlanEntry(forged, 0))
	underForged := get(forgedPlan, "miss")
	local := get(nil, "miss") // the forged fragment must not answer this
	if local == underForged {
		t.Fatal("the forged interpretation ranks like the honest one; the test cannot tell them apart")
	}
	rows, _, err := db.TopKThreshold([]string{pred}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var got server.TopKResponse
	if err := json.Unmarshal([]byte(local), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(rows) {
		t.Fatalf("local answer has %d rows, engine %d", len(got.Rows), len(rows))
	}
	for i := range rows {
		if got.Rows[i].EntityID != rows[i].EntityID || got.Rows[i].Score != rows[i].Score {
			t.Fatalf("row %d: %+v, engine %+v", i, got.Rows[i], rows[i])
		}
	}
	if again := get(nil, "hit"); again != local {
		t.Fatal("memo hit diverged from the local answer")
	}
	if again := get(forgedPlan, "hit"); again != underForged {
		t.Fatal("the same plan did not hit its own fragment")
	}
	// An honest plan and a local interpretation are the same key.
	if again := get(shipped(t, server.NewPlanEntry(honest, 0)), "hit"); again != local {
		t.Fatal("an honest plan diverged from the local answer")
	}
}

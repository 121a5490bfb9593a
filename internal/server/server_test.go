package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/server"
)

// The test fixture builds one small hotel database shared by all tests.
var (
	fixOnce sync.Once
	fixData *corpus.Dataset
	fixDB   *core.DB
	fixErr  error
)

func testServer(t *testing.T) (*corpus.Dataset, *core.DB, *httptest.Server) {
	t.Helper()
	fixOnce.Do(func() {
		cfg := corpus.SmallConfig()
		cfg.HotelsLondon, cfg.HotelsAmsterdam = 40, 15
		cfg.ReviewsPerHotel = 16
		fixData = corpus.GenerateHotels(cfg)
		c := core.DefaultConfig()
		c.MarkersPerAttr = 6
		fixDB, fixErr = harness.BuildDB(fixData, c, 600, 400)
	})
	if fixErr != nil {
		t.Fatalf("fixture build: %v", fixErr)
	}
	srv := httptest.NewServer(server.New(fixDB, server.Options{
		EntityName: func(id string) string {
			if e := fixData.EntityByID(id); e != nil {
				return e.Name
			}
			return ""
		},
	}))
	t.Cleanup(srv.Close)
	return fixData, fixDB, srv
}

// getJSON fetches url and decodes the response into out, asserting the
// expected status.
func getJSON(t *testing.T, url string, wantStatus int, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET %s: Content-Type %q", url, ct)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, db, srv := testServer(t)
	var h server.HealthResponse
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.Entities != len(db.EntityIDs()) || h.Extractions != db.ExtractionCount() || h.Attributes != len(db.Attrs) {
		t.Errorf("shape mismatch: %+v", h)
	}
}

func TestSchema(t *testing.T) {
	_, db, srv := testServer(t)
	var sc server.SchemaResponse
	getJSON(t, srv.URL+"/schema", http.StatusOK, &sc)
	if len(sc.Attributes) != len(db.Attrs) {
		t.Fatalf("%d attributes, want %d", len(sc.Attributes), len(db.Attrs))
	}
	for i, a := range sc.Attributes {
		if a.Name != db.Attrs[i].Name || len(a.Markers) != len(db.Attrs[i].Markers) {
			t.Errorf("attribute %d mismatch: %+v", i, a)
		}
	}
}

func TestQueryPostMatchesEngine(t *testing.T) {
	_, db, srv := testServer(t)
	sql := `select * from Entities where price_pn < 300 and "has really clean rooms" limit 5`
	body, _ := json.Marshal(server.QueryRequest{SQL: sql})
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var qr server.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}

	want, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if qr.Rewritten != want.Rewritten {
		t.Errorf("rewritten = %q, want %q", qr.Rewritten, want.Rewritten)
	}
	if len(qr.Rows) != len(want.Rows) {
		t.Fatalf("%d rows, want %d", len(qr.Rows), len(want.Rows))
	}
	for i, row := range qr.Rows {
		if row.EntityID != want.Rows[i].EntityID || row.Score != want.Rows[i].Score {
			t.Errorf("row %d = %s/%v, want %s/%v",
				i, row.EntityID, row.Score, want.Rows[i].EntityID, want.Rows[i].Score)
		}
		if row.Name == "" {
			t.Errorf("row %d missing entity name", i)
		}
	}
	if len(qr.Interpretations) == 0 {
		t.Error("no interpretations returned")
	}
}

func TestQueryGet(t *testing.T) {
	_, _, srv := testServer(t)
	var qr server.QueryResponse
	getJSON(t, srv.URL+`/query?sql=select+*+from+Entities+where+"has+friendly+staff"&k=3`,
		http.StatusOK, &qr)
	if len(qr.Rows) == 0 || len(qr.Rows) > 3 {
		t.Errorf("%d rows, want 1..3", len(qr.Rows))
	}
}

func TestQueryErrors(t *testing.T) {
	_, _, srv := testServer(t)
	var e map[string]string
	getJSON(t, srv.URL+"/query", http.StatusBadRequest, &e)
	if e["error"] == "" {
		t.Error("missing error message for empty sql")
	}
	getJSON(t, srv.URL+"/query?sql=not+sql+at+all", http.StatusBadRequest, &e)
	if e["error"] == "" {
		t.Error("missing error message for a parse failure")
	}
}

func TestInterpret(t *testing.T) {
	_, db, srv := testServer(t)
	var ir server.InterpretResponse
	getJSON(t, srv.URL+"/interpret?predicate=has+really+clean+rooms", http.StatusOK, &ir)
	want := db.Interpret("has really clean rooms")
	if ir.Chosen.Method != string(want.Method) || ir.Chosen.Rendered != want.String() {
		t.Errorf("chosen = %+v, want %s via %s", ir.Chosen, want.String(), want.Method)
	}
	if ir.W2VOnly.Method != string(core.MethodW2V) {
		t.Errorf("w2v_only method = %q", ir.W2VOnly.Method)
	}
}

func TestEvidence(t *testing.T) {
	_, db, srv := testServer(t)
	// Find an (entity, attribute) pair with a summary.
	var entity, attribute string
	for _, a := range db.Attrs {
		for _, id := range db.EntityIDs() {
			if s := db.Summary(a.Name, id); s != nil && s.Total > 0 {
				entity, attribute = id, a.Name
				break
			}
		}
		if entity != "" {
			break
		}
	}
	if entity == "" {
		t.Fatal("no summaries in fixture")
	}
	var ev server.EvidenceResponse
	getJSON(t, fmt.Sprintf("%s/evidence?entity=%s&attribute=%s", srv.URL, entity, attribute),
		http.StatusOK, &ev)
	if ev.Total == 0 || len(ev.Markers) == 0 {
		t.Fatalf("empty evidence: %+v", ev)
	}
	var contributing int
	for _, m := range ev.Markers {
		if m.Count > 0 {
			contributing++
			if len(m.Extractions) == 0 {
				t.Errorf("marker %d has count %v but no provenance", m.Index, m.Count)
			}
		}
	}
	if contributing == 0 {
		t.Error("no contributing markers")
	}

	getJSON(t, srv.URL+"/evidence?entity=nope&attribute="+attribute, http.StatusNotFound, nil)
	getJSON(t, srv.URL+"/evidence?entity="+entity+"&attribute=nope", http.StatusNotFound, nil)
}

func TestTopK(t *testing.T) {
	_, db, srv := testServer(t)
	var tk server.TopKResponse
	getJSON(t, srv.URL+"/topk?predicate=has+really+clean+rooms&predicate=has+friendly+staff&k=5",
		http.StatusOK, &tk)
	rows, _, err := db.TopKThreshold([]string{"has really clean rooms", "has friendly staff"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tk.Rows) != len(rows) {
		t.Fatalf("%d rows, want %d", len(tk.Rows), len(rows))
	}
	for i := range rows {
		if tk.Rows[i].EntityID != rows[i].EntityID || tk.Rows[i].Score != rows[i].Score {
			t.Errorf("row %d mismatch", i)
		}
	}
	if tk.SortedAccesses == 0 {
		t.Error("no TA stats reported")
	}
}

// TestConcurrentServing hammers the server from many goroutines and
// checks every response matches the sequential baseline — the serving
// layer's half of the concurrent-reader guarantee (run under -race).
func TestConcurrentServing(t *testing.T) {
	d, db, srv := testServer(t)
	sql := `select * from Entities where "has really clean rooms" limit 5`
	baseline, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	var preds []string
	for _, p := range d.Predicates {
		preds = append(preds, p.Text)
		if len(preds) == 6 {
			break
		}
	}

	const goroutines = 8
	const iters = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var qr server.QueryResponse
				resp, err := http.Get(srv.URL + "/query?sql=" + "select+*+from+Entities+where+%22has+really+clean+rooms%22+limit+5")
				if err != nil {
					errs <- err
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if len(qr.Rows) != len(baseline.Rows) {
					errs <- fmt.Errorf("goroutine %d: %d rows, want %d", g, len(qr.Rows), len(baseline.Rows))
					return
				}
				for j, row := range qr.Rows {
					if row.EntityID != baseline.Rows[j].EntityID || row.Score != baseline.Rows[j].Score {
						errs <- fmt.Errorf("goroutine %d row %d diverged", g, j)
						return
					}
				}
				// Mix in interpretation traffic on a rotating predicate.
				var ir server.InterpretResponse
				resp, err = http.Get(srv.URL + "/interpret?predicate=" + "romantic+getaway")
				if err != nil {
					errs <- err
					return
				}
				err = json.NewDecoder(resp.Body).Decode(&ir)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				_ = preds[i%len(preds)]
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The interpretation cache must serve identical values afterwards.
	if got := db.Interpret("romantic getaway"); !reflect.DeepEqual(got, db.Interpret("romantic getaway")) {
		t.Error("unstable interpretation after concurrent serving")
	}
}

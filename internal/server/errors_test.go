package server_test

// Error-envelope audit: every endpoint, for every malformed input and
// wrong verb, must answer with a matching 4xx status and the JSON
// {"error": ...} envelope — never 200 with an empty or half-parsed body,
// never the mux's plain-text 404.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestErrorEnvelopes(t *testing.T) {
	_, _, srv := testServer(t)
	client := srv.Client()

	cases := []struct {
		name       string
		method     string
		target     string
		body       string
		wantStatus int
		wantErr    string // substring of the envelope's error field
	}{
		// /query GET
		{"query get missing sql", http.MethodGet, "/query", "", http.StatusBadRequest, "missing sql"},
		{"query get bad k", http.MethodGet, "/query?sql=select+*+from+Entities&k=ten", "", http.StatusBadRequest, "bad k"},
		{"query get unparseable sql", http.MethodGet, "/query?sql=selec", "", http.StatusBadRequest, "query"},
		// /query POST: malformed JSON in all its flavors
		{"query post empty body", http.MethodPost, "/query", "", http.StatusBadRequest, "bad request body"},
		{"query post syntax error", http.MethodPost, "/query", "{", http.StatusBadRequest, "bad request body"},
		{"query post not an object", http.MethodPost, "/query", `"just a string"`, http.StatusBadRequest, "bad request body"},
		{"query post wrong type", http.MethodPost, "/query", `{"sql": 7}`, http.StatusBadRequest, "bad request body"},
		{"query post unknown field", http.MethodPost, "/query", `{"sql": "select * from Entities", "sqll": "typo"}`, http.StatusBadRequest, "bad request body"},
		{"query post trailing garbage", http.MethodPost, "/query", `{"sql": "select * from Entities"} {"second": "doc"}`, http.StatusBadRequest, "trailing data"},
		{"query post missing sql", http.MethodPost, "/query", `{"k": 3}`, http.StatusBadRequest, "missing sql"},
		// /query wrong verb
		{"query delete", http.MethodDelete, "/query", "", http.StatusMethodNotAllowed, "use GET or POST"},
		{"query put", http.MethodPut, "/query", "{}", http.StatusMethodNotAllowed, "use GET or POST"},
		// /interpret
		{"interpret missing predicate", http.MethodGet, "/interpret", "", http.StatusBadRequest, "missing predicate"},
		{"interpret post", http.MethodPost, "/interpret?predicate=clean", "", http.StatusMethodNotAllowed, "use GET"},
		// /evidence
		{"evidence missing params", http.MethodGet, "/evidence", "", http.StatusBadRequest, "missing entity or attribute"},
		{"evidence missing attribute", http.MethodGet, "/evidence?entity=h0001", "", http.StatusBadRequest, "missing entity or attribute"},
		{"evidence unknown attribute", http.MethodGet, "/evidence?entity=h0001&attribute=nope", "", http.StatusNotFound, "no attribute"},
		{"evidence unknown entity", http.MethodGet, "/evidence?entity=zzz&attribute=room_cleanliness", "", http.StatusNotFound, "no summary"},
		{"evidence bad limit", http.MethodGet, "/evidence?entity=h0001&attribute=room_cleanliness&limit=-2", "", http.StatusBadRequest, "bad limit"},
		{"evidence post", http.MethodPost, "/evidence?entity=h0001&attribute=room_cleanliness", "", http.StatusMethodNotAllowed, "use GET"},
		// /topk
		{"topk missing predicate", http.MethodGet, "/topk", "", http.StatusBadRequest, "missing predicate"},
		{"topk bad k", http.MethodGet, "/topk?predicate=clean&k=0", "", http.StatusBadRequest, "bad k"},
		{"topk post", http.MethodPost, "/topk?predicate=clean", "", http.StatusMethodNotAllowed, "use GET"},
		// /plan
		{"plan get", http.MethodGet, "/plan", "", http.StatusMethodNotAllowed, "use POST"},
		{"plan bad body", http.MethodPost, "/plan", `{"predicates":`, http.StatusBadRequest, "bad request body"},
		{"plan no predicates", http.MethodPost, "/plan", `{"predicates":[]}`, http.StatusBadRequest, "missing predicates"},
		{"plan empty predicate", http.MethodPost, "/plan", `{"predicates":[" "]}`, http.StatusBadRequest, "empty predicate"},
		// /schema and /healthz wrong verb
		{"schema post", http.MethodPost, "/schema", "", http.StatusMethodNotAllowed, "use GET"},
		{"healthz delete", http.MethodDelete, "/healthz", "", http.StatusMethodNotAllowed, "use GET"},
		// unknown paths: JSON envelope, not the mux's text 404
		{"unknown path", http.MethodGet, "/nope", "", http.StatusNotFound, "no such endpoint"},
		{"root path", http.MethodGet, "/", "", http.StatusNotFound, "no such endpoint"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, srv.URL+tc.target, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) == 0 {
				t.Fatal("empty body (the bug this audit exists to prevent)")
			}
			var env struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatalf("body is not a JSON envelope: %q", raw)
			}
			if env.Error == "" || !strings.Contains(env.Error, tc.wantErr) {
				t.Errorf("error %q does not contain %q", env.Error, tc.wantErr)
			}
		})
	}
}

// TestHeadAllowedOnReadEndpoints: HEAD must keep working on the GET
// endpoints (net/http strips the body) so load-balancer health probes do
// not take replicas out of rotation.
func TestHeadAllowedOnReadEndpoints(t *testing.T) {
	_, _, srv := testServer(t)
	for _, target := range []string{"/healthz", "/schema"} {
		resp, err := srv.Client().Head(srv.URL + target)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("HEAD %s: status %d, want 200", target, resp.StatusCode)
		}
	}
}

// TestMethodNotAllowedSetsAllow: 405 responses advertise the allowed
// verbs.
func TestMethodNotAllowedSetsAllow(t *testing.T) {
	_, _, srv := testServer(t)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/query", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Allow"); got != "GET, POST" {
		t.Errorf("Allow = %q, want \"GET, POST\"", got)
	}
}

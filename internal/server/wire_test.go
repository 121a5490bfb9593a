package server_test

// The byte-identity rule of wire.go, pinned: whatever the append encoders
// write, encoding/json's Encoder (HTML escaping off) writes the same bytes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/server"
)

// reference is the encoder the hand-written ones replaced.
func reference(t *testing.T, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

// written is what WriteJSON puts on the wire for v.
func written(t *testing.T, v interface{}) []byte {
	t.Helper()
	var rec server.MemResponse
	server.WriteJSON(&rec, http.StatusOK, v)
	if rec.Status() != http.StatusOK {
		t.Fatalf("WriteJSON(%+v): status %d: %s", v, rec.Status(), rec.Body())
	}
	return append([]byte(nil), rec.Body()...)
}

// TestWireGoldenHarnessSet replays the harness query set — every predicate
// through /interpret, every single and adjacent pair through /query and
// /topk — and requires each hand-encoded body to be the reference encoding
// of what it decodes to.
func TestWireGoldenHarnessSet(t *testing.T) {
	d, _, _ := testServer(t)
	h := server.New(fixDB, server.Options{EntityName: func(id string) string { return "Hotel <" + id + "> & Spa" }})
	get := func(method, target string, body []byte) []byte {
		var rec server.MemResponse
		h.ServeHTTP(&rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rec.Status() != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Status(), rec.Body())
		}
		return rec.Body()
	}
	check := func(what string, got []byte, decoded interface{}) {
		if err := json.Unmarshal(got, decoded); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want := reference(t, decoded); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n wire %s\n json %s", what, got, want)
		}
	}
	n := 0
	for i, p := range d.Predicates {
		check("interpret "+p.Text, get("GET", "/interpret?predicate="+url.QueryEscape(p.Text), nil), new(server.InterpretResponse))
		n++
		workloads := [][]string{{p.Text}}
		if i+1 < len(d.Predicates) {
			workloads = append(workloads, []string{p.Text, d.Predicates[i+1].Text})
		}
		for _, q := range workloads {
			sql, _ := json.Marshal(server.QueryRequest{SQL: `SELECT * FROM Entities WHERE "` + strings.Join(q, `" AND "`) + `"`})
			check(fmt.Sprint("query ", q), get("POST", "/query", sql), new(server.QueryResponse))
			check(fmt.Sprint("topk ", q), get("GET", "/topk?"+url.Values{"predicate": q}.Encode(), nil), new(server.TopKResponse))
			n += 2
		}
	}
	if n < 900 {
		t.Errorf("golden set covered %d responses, want the harness set's ~948", n)
	}
}

// nasty are the strings the escaper has a rule for.
var nasty = []string{
	"", "plain", `"`, `\`, "/", "\b\f\n\r\t", "\x00\x01\x1f", "\x7f", "<script>&amp;</script>",
	"\u2028", "\u2029", "\u2027\u202a", "é", "日本語", "😀", "\xff", "\xc3", "\xed\xa0\x80", "a\xe2\x80", "\ufffd",
}

func randString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(4); n >= 0; n-- {
		if rng.Intn(3) == 0 {
			b.WriteByte(byte(rng.Intn(256)))
		} else {
			b.WriteString(nasty[rng.Intn(len(nasty))])
		}
	}
	return b.String()
}

// edges are the floats where the number form changes.
var edges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, 1.5e-9, 1e20, 1e21, 9.999999999999999e20,
	1e22, 123456789012345680000, math.MaxFloat64, math.SmallestNonzeroFloat64, -math.MaxFloat64, 0.30000000000000004, 1e-10, 1e-100,
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return edges[rng.Intn(len(edges))]
	case 1:
		return rng.Float64()
	case 2:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(32)-8)) // 1e-8 … 1e23
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func randInterpretation(rng *rand.Rand) server.InterpretationJSON {
	in := server.InterpretationJSON{Predicate: randString(rng), Method: randString(rng), Rendered: randString(rng), Similarity: randFloat(rng)}
	switch rng.Intn(3) {
	case 0:
		in.Terms = []string{}
	case 1:
		for n := rng.Intn(3); n >= 0; n-- {
			in.Terms = append(in.Terms, randString(rng))
		}
	}
	in.Disjunction = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		in.MatchedPhrase = randString(rng)
	}
	return in
}

func randRows(rng *rand.Rand) []server.RowJSON {
	var rows []server.RowJSON
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []server.RowJSON{}
	}
	for n := rng.Intn(5); n >= 0; n-- {
		row := server.RowJSON{EntityID: randString(rng), Score: randFloat(rng)}
		if rng.Intn(2) == 0 {
			row.Name = randString(rng)
		}
		switch rng.Intn(3) {
		case 0:
			row.PredicateScores = map[string]float64{}
		case 1:
			row.PredicateScores = map[string]float64{}
			for m := rng.Intn(4); m >= 0; m-- {
				row.PredicateScores[randString(rng)] = randFloat(rng)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func TestWireEqualsEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 3000; trial++ {
		q := &server.QueryResponse{Rewritten: randString(rng), Rows: randRows(rng), ElapsedMs: randFloat(rng)}
		switch rng.Intn(3) {
		case 0:
			q.Interpretations = map[string]server.InterpretationJSON{}
		case 1:
			q.Interpretations = map[string]server.InterpretationJSON{}
			for n := rng.Intn(4); n >= 0; n-- {
				q.Interpretations[randString(rng)] = randInterpretation(rng)
			}
		}
		k := &server.TopKResponse{Rows: randRows(rng), SortedAccesses: rng.Intn(1000) - 500, Depth: rng.Int(), Candidates: -rng.Int(), ElapsedMs: randFloat(rng)}
		in := &server.InterpretResponse{Chosen: randInterpretation(rng), W2VOnly: randInterpretation(rng), CooccurOnly: randInterpretation(rng)}
		for _, v := range []interface{}{q, k, in} {
			if got, want := written(t, v), reference(t, v); !bytes.Equal(got, want) {
				t.Fatalf("trial %d %T:\n wire %q\n json %q", trial, v, got, want)
			}
		}
	}
	// Every byte and every string the escaper singles out, alone.
	singled := append([]string(nil), nasty...)
	for c := 0; c < 256; c++ {
		singled = append(singled, string([]byte{byte(c)}), "x"+string([]byte{byte(c)})+"y")
	}
	for _, s := range singled {
		v := &server.TopKResponse{Rows: []server.RowJSON{{EntityID: s, Name: s, PredicateScores: map[string]float64{s: 1, s + s: 2}}}}
		if got, want := written(t, v), reference(t, v); !bytes.Equal(got, want) {
			t.Fatalf("%q:\n wire %q\n json %q", s, got, want)
		}
	}
	for _, f := range edges {
		for _, f := range []float64{f, -f, math.Nextafter(f, 0), math.Nextafter(f, 2*f)} {
			if math.IsInf(f, 0) {
				continue // past MaxFloat64
			}
			v := &server.TopKResponse{Rows: []server.RowJSON{{Score: f}}, ElapsedMs: f}
			if got, want := written(t, v), reference(t, v); !bytes.Equal(got, want) {
				t.Fatalf("%v:\n wire %q\n json %q", f, got, want)
			}
		}
	}
}

// A value JSON cannot carry must fail the request, not truncate it: the
// status used to go out before the encoder found the NaN.
func TestUnencodableResponseIs500(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(-1)
	for name, v := range map[string]interface{}{
		"row score":       &server.QueryResponse{Rows: []server.RowJSON{{EntityID: "a", Score: 1}, {EntityID: "b", Score: nan}}},
		"predicate score": &server.TopKResponse{Rows: []server.RowJSON{{EntityID: "a", PredicateScores: map[string]float64{"p": inf}}}},
		"similarity":      &server.InterpretResponse{W2VOnly: server.InterpretationJSON{Similarity: nan}},
		"elapsed":         &server.TopKResponse{ElapsedMs: math.Inf(1)},
		"reflective":      server.HealthResponse{Status: "ok", UptimeSeconds: nan},
	} {
		var rec server.MemResponse
		server.WriteJSON(&rec, http.StatusOK, v)
		var env struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body(), &env); rec.Status() != http.StatusInternalServerError || err != nil || !strings.Contains(env.Error, "unsupported value") {
			t.Errorf("%s: status %d body %q (decode: %v)", name, rec.Status(), rec.Body(), err)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
	}
}

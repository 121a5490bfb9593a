package router

// The fragment walker and the raw merge against their references:
// encoding/json's own decode of the same bytes, and concatenate-sort-
// truncate. FuzzFragmentScan runs from its checked-in corpus in tier-1.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/server"
)

// refMerge is the naive reference: concatenate, sort, truncate.
func refMerge(lists [][]server.RowJSON, k int) []server.RowJSON {
	all := []server.RowJSON{}
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].EntityID < all[j].EntityID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// mergeViaFragments runs lists through the production path: each list
// marshaled as a shard's /topk answer, walked, merged, winners decoded.
func mergeViaFragments(t testing.TB, lists [][]server.RowJSON, k int) []server.RowJSON {
	t.Helper()
	var rows []rowSpan
	spans := make([][]rowSpan, 0, len(lists))
	for _, l := range lists {
		body, err := json.Marshal(server.TopKResponse{Rows: l})
		if err != nil {
			t.Fatal(err)
		}
		var f fragment
		if f, rows, err = scanFragment(body, rows); err != nil {
			t.Fatalf("walker rejected %s: %v", body, err)
		}
		spans = append(spans, f.rows)
	}
	out := []server.RowJSON{}
	for _, raw := range mergeRows(spans, k) {
		var row server.RowJSON
		if err := json.Unmarshal(raw, &row); err != nil {
			t.Fatalf("winner span %s: %v", raw, err)
		}
		out = append(out, row)
	}
	return out
}

func TestMergeRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		lists := make([][]server.RowJSON, 1+rng.Intn(8))
		n := 0
		for i := range lists {
			for j := rng.Intn(12); j > 0; j-- {
				score := float64(rng.Intn(6)) / 5 // deliberately collide scores to hit tie-breaks
				lists[i] = append(lists[i], server.RowJSON{EntityID: fmt.Sprintf("e%04d", rng.Intn(40)), Score: score})
				n++
			}
			l := lists[i]
			sort.Slice(l, func(a, b int) bool {
				if l[a].Score != l[b].Score {
					return l[a].Score > l[b].Score
				}
				return l[a].EntityID < l[b].EntityID
			})
		}
		// k is attacker-controlled (?k=, {"k":...}); the merge must allocate
		// by available rows, not by k — a 9e18 cap would panic outright.
		for _, k := range []int{0, 1, n - 1, n, n + 1, 1 << 62, 1 + rng.Intn(15)} {
			if k < 0 {
				continue
			}
			got, want := mergeViaFragments(t, lists, k), refMerge(lists, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d:\n got %+v\nwant %+v", trial, k, got, want)
			}
		}
	}
}

func TestMergeRowsEmpty(t *testing.T) {
	if rows := mergeRows(nil, 10); len(rows) != 0 {
		t.Fatalf("merged %d rows from nothing", len(rows))
	}
	if rows := mergeViaFragments(t, [][]server.RowJSON{{}, nil, {}}, 10); len(rows) != 0 {
		t.Fatalf("merged %d rows from empty lists", len(rows))
	}
}

func TestScanFragmentAcceptsWhatUnmarshalReads(t *testing.T) {
	for _, body := range []string{
		`{"rows":[]}`,
		`{"rows":null,"depth":3}`,
		" {\n\t\"elapsed_ms\" : 1e-3 , \"rows\" : [ { \"score\" : -0.0e+0 , \"extra\" : [ { } , [ ] , true , false , null ] , \"entity_id\" : \"a\" } ] }\r\n",
		`{"rows":[{"entity_id":"x","score":1}],"rows":[{"entity_id":"a\u00e9\ud83d\ude00\/","score":2,"score":3}]}`,
		`{"rows":[{"entity_id":"caf\u00e9","score":0.5},{"entity_id":"café","score":0.5}],"rewritten":"a \"b\"","interpretations":null}`,
	} {
		f, _, err := scanFragment([]byte(body), nil)
		if err != nil {
			t.Errorf("%s: %v", body, err)
			continue
		}
		var want server.TopKResponse
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		if len(f.rows) != len(want.Rows) || f.depth != want.Depth {
			t.Errorf("%s: walked %d rows depth %d, Unmarshal %d rows depth %d", body, len(f.rows), f.depth, len(want.Rows), want.Depth)
			continue
		}
		for i, r := range f.rows {
			if string(r.id) != want.Rows[i].EntityID || math.Float64bits(r.score) != math.Float64bits(want.Rows[i].Score) {
				t.Errorf("%s row %d: walked (%q, %v), Unmarshal (%q, %v)", body, i, r.id, r.score, want.Rows[i].EntityID, want.Rows[i].Score)
			}
		}
	}
}

func TestScanFragmentRejects(t *testing.T) {
	deep := strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1)
	for _, body := range []string{
		``, `null`, `[]`, `{`, `{"rows":[]`, `{"rows":[]}}`, `{"rows":[]} x`, "{\"rows\":[]}\x00",
		`{"rows":5}`, `{"rows":[null]}`, `{"rows":[[]]}`, `{"rows":[{}]}`,
		`{"rows":[{"entity_id":"a"}]}`, `{"rows":[{"score":1}]}`,
		`{"rows":[{"entity_id":7,"score":1}]}`, `{"rows":[{"entity_id":"a","score":"1"}]}`,
		`{"rows":[{"entity_id":"a","score":null}]}`, `{"rows":[{"entity_id":"a","score":NaN}]}`,
		`{"rows":[{"entity_id":"a","score":1e999}]}`, `{"rows":[{"entity_id":"a","score":01}]}`,
		`{"rows":[{"entity_id":"a","score":1.}]}`, `{"rows":[{"entity_id":"a","score":-}]}`,
		`{"rows":[{"entity_id":"a","score":1e}]}`, `{"rows":[{"entity_id":"a","score":+1}]}`,
		`{"rows":[{"entity_id":"a","score":1},]}`, `{"rows":[,{"entity_id":"a","score":1}]}`,
		`{"rows":[{"entity_id":"a","score":1,}]}`, `{"rows":[{"entity_id":"a" "score":1}]}`,
		`{"rows":[{"entity_id":"a","score":1}],}`, `{"rows" []}`, `{rows:[]}`,
		`{"ro\u0077s":[]}`, `{"rows":[{"entity_\u0069d":"a","score":1}]}`,
		`{"rows":[{"entity_id":"a\x","score":1}]}`, `{"rows":[{"entity_id":"a\u12g4","score":1}]}`,
		`{"rows":[{"entity_id":"a\ud800","score":1}],"x":"\`, "{\"rows\":[{\"entity_id\":\"a\nb\",\"score\":1}]}", "{\"rows\":[],\"x\":\"\x1f\"}",
		`{"rows":[],"x":tru}`, `{"rows":[],"x":nul}`, `{"rows":[],"x":falsy}`, `{"rows":[],"x":` + deep + `}`,
		`{"rows":[],"depth":1.5}`, `{"rows":[],"candidates":"3"}`, `{"rows":[],"rewritten":3}`, `{"rows":[],"interpretations":[]}`,
	} {
		if _, rows, err := scanFragment([]byte(body), nil); err == nil {
			t.Errorf("accepted %q", body)
		} else if len(rows) != 0 {
			t.Errorf("%q: rejected but left %d rows behind", body, len(rows))
		}
	}
}

// fuzzResponse builds a response from fuzz bytes: ids, names and predicate
// texts cut from the input (so escapes, invalid UTF-8 and U+2028 get in),
// scores from its raw float bits.
func fuzzResponse(data []byte) server.QueryResponse {
	next := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		chunk := data[:n]
		data = data[n:]
		return chunk
	}
	float := func() float64 {
		var raw [8]byte
		copy(raw[:], next(8))
		f := math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0.25
		}
		return f
	}
	resp := server.QueryResponse{Rewritten: string(next(3)), Rows: []server.RowJSON{}}
	if len(data) > 0 && data[0]%2 == 0 {
		p := string(next(4))
		resp.Interpretations = map[string]server.InterpretationJSON{p: {Predicate: p, Terms: []string{string(next(2))}, Similarity: float()}}
	}
	for len(data) > 0 {
		row := server.RowJSON{EntityID: string(next(1 + int(data[0]%7))), Score: float()}
		if len(data) > 0 && data[0]%3 == 0 {
			row.Name = string(next(5))
			row.PredicateScores = map[string]float64{string(next(2)): float(), string(next(3)): float()}
		}
		resp.Rows = append(resp.Rows, row)
	}
	return resp
}

// FuzzFragmentScan's seeds are testdata/fuzz/FuzzFragmentScan.
func FuzzFragmentScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw arm: whatever the bytes are, the walker neither panics nor
		// accepts a document encoding/json calls invalid.
		if frag, _, err := scanFragment(data, nil); err == nil {
			if !json.Valid(data) {
				t.Fatalf("walker accepted invalid JSON %q", data)
			}
			for _, r := range frag.rows {
				if !json.Valid(r.raw) {
					t.Fatalf("row span %q of %q is not a JSON value", r.raw, data)
				}
			}
		}
		// Structure-aware arm: a marshaled response walks to the rows
		// Unmarshal decodes — same ids, same score bits, same spans.
		resp := fuzzResponse(data)
		bodies := [][]byte{nil, nil}
		var err error
		if bodies[0], err = json.Marshal(resp); err != nil {
			t.Fatal(err)
		}
		topk := server.TopKResponse{Rows: resp.Rows, SortedAccesses: len(data), Depth: len(resp.Rows), Candidates: 7}
		if bodies[1], err = json.MarshalIndent(topk, " ", "\t"); err != nil {
			t.Fatal(err)
		}
		for _, body := range bodies {
			var want struct {
				server.QueryResponse
				SortedAccesses int `json:"sorted_accesses"`
				Depth          int `json:"depth"`
				Candidates     int `json:"candidates"`
			}
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatal(err)
			}
			frag, _, err := scanFragment(body, nil)
			if err != nil {
				t.Fatalf("walker rejected %s: %v", body, err)
			}
			if len(frag.rows) != len(want.Rows) || frag.sortedAccesses != want.SortedAccesses || frag.depth != want.Depth || frag.candidates != want.Candidates {
				t.Fatalf("%s: walked %d rows and counters %d/%d/%d", body, len(frag.rows), frag.sortedAccesses, frag.depth, frag.candidates)
			}
			for i, r := range frag.rows {
				var row server.RowJSON
				if err := json.Unmarshal(r.raw, &row); err != nil {
					t.Fatalf("row span %s: %v", r.raw, err)
				}
				w := want.Rows[i]
				if string(r.id) != w.EntityID || math.Float64bits(r.score) != math.Float64bits(w.Score) || !reflect.DeepEqual(row, w) {
					t.Fatalf("%s row %d: walked (%q, %v) span %s, Unmarshal %+v", body, i, r.id, r.score, r.raw, w)
				}
			}
			var rewritten string
			var interps map[string]server.InterpretationJSON
			if frag.rewritten != nil {
				if err := json.Unmarshal(frag.rewritten, &rewritten); err != nil {
					t.Fatal(err)
				}
			}
			if frag.interpretations != nil {
				if err := json.Unmarshal(frag.interpretations, &interps); err != nil {
					t.Fatal(err)
				}
			}
			if rewritten != want.Rewritten || !reflect.DeepEqual(interps, want.Interpretations) {
				t.Fatalf("%s: walked rewritten %q interpretations %+v", body, rewritten, interps)
			}
		}
	})
}

// garbageBackend answers 200 with a body that is not a shard response.
type garbageBackend struct{ body string }

func (garbageBackend) Name() string { return "garbage" }
func (g garbageBackend) Do(context.Context, string, string, []byte) (int, []byte, error) {
	return 200, []byte(g.body), nil
}

// A leg whose bytes the walker rejects is that shard's failure: the
// answer goes out partial, names the shard, and keeps the live rows.
func TestGarbageLegIsPartial(t *testing.T) {
	target := "/topk?predicate=clean&k=2"
	live := topkBackend("s0", target, []server.RowJSON{{EntityID: "a", Score: 0.9}, {EntityID: "b", Score: 0.5}})
	for _, body := range []string{`<html>502</html>`, `{"rows":[{"entity_id":"z","score":NaN}]}`, `{"rows":[{"entity_id":"z","score":2}]} trailing`} {
		rt, err := New([]Shard{{Backend: live}, {Backend: garbageBackend{body}}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.TopK(context.Background(), []string{"clean"}, 2)
		if err != nil {
			t.Fatalf("%s: partial fleet should still answer: %v", body, err)
		}
		if !res.Partial || !strings.HasPrefix(res.ShardErrors[1], "bad response: ") {
			t.Errorf("%s: partial=%v shard_errors=%v", body, res.Partial, res.ShardErrors)
		}
		if len(res.FailedNodes) != 1 || res.FailedNodes[0].Shard != 1 || res.FailedNodes[0].Backend != "garbage" {
			t.Errorf("%s: failed_nodes=%+v", body, res.FailedNodes)
		}
		if len(res.Rows) != 2 || res.Rows[0].EntityID != "a" || res.Rows[1].EntityID != "b" {
			t.Errorf("%s: rows = %+v", body, res.Rows)
		}
		// The HTTP rendering of the same request.
		m, err := rt.topK(context.Background(), []string{"clean"}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if out := m.appendTopK(nil); bytes.Contains(out, []byte(`"z"`)) || !json.Valid(out) {
			t.Errorf("%s: front door answered %s", body, out)
		}
	}
}

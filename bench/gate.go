package main

// Correctness gates. A read sample must answer byte-identically on the
// routed fleet and on the monolith rendered through internal/server
// (timing and work-counter fields stripped); after a write workload the
// fleet is restarted from disk and every durable ack must be on every
// node, with equal journal positions.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/server"
)

const gateSample = 200

// gateResult counts a gate's checks; misses are described for the log.
type gateResult struct {
	attempted int
	failed    int
	misses    []string
}

func (g *gateResult) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.failed++
		if len(g.misses) < 5 {
			g.misses = append(g.misses, fmt.Sprintf(format, args...))
		}
	}
}

// canonical strips the fields that legitimately differ between two
// correct answers — elapsed time, and /topk's work counters, which are
// fleet totals on the router — and re-encodes with sorted keys.
func canonical(body []byte) ([]byte, error) {
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	for _, k := range []string{"elapsed_ms", "sorted_accesses", "depth", "candidates"} {
		delete(v, k)
	}
	return json.Marshal(v)
}

// monolith is the reference: the unsharded database behind the same
// HTTP surface a shard runs.
type monolith struct {
	db *core.DB
	do doer
}

func newMonolith(db *core.DB) *monolith {
	return &monolith{db: db, do: handlerDoer(server.New(db, server.Options{EntityName: entityNamer(db)}))}
}

// sameAnswers sends n reads drawn from st to both the fleet and the
// monolith and requires equal canonical bodies.
func sameAnswers(f *fleet, ref *monolith, st *stream, n int) gateResult {
	var g gateResult
	fleetDo := handlerDoer(f.handler)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		r := st.nextRead()
		fs, fb, ferr := fleetDo(ctx, &r)
		ms, mb, merr := ref.do(ctx, &r)
		if ferr != nil || merr != nil || fs != http.StatusOK || ms != http.StatusOK {
			g.check(false, "%s: fleet status %d err %v, monolith status %d err %v", r.target, fs, ferr, ms, merr)
			continue
		}
		fc, ferr := canonical(fb)
		mc, merr := canonical(mb)
		g.check(ferr == nil && merr == nil && bytes.Equal(fc, mc), "%s: fleet and monolith answers differ", r.target)
	}
	return g
}

// durable requires, on a fleet just reopened from disk, every acked
// review id on every node and one journal position fleet-wide.
func durable(f *fleet, acked []string) gateResult {
	var g gateResult
	for _, id := range acked {
		for i, n := range f.nodes {
			g.check(n.db.HasReview(id), "acked review %s missing on node %d after restart", id, i)
		}
	}
	var first server.JournalStatusResponse
	for i, n := range f.nodes {
		var st server.JournalStatusResponse
		status, body, err := n.backend.Do(context.Background(), http.MethodGet, "/journal/status", nil)
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &st) != nil {
			g.check(false, "node %d: /journal/status: status %d err %v", i, status, err)
			continue
		}
		if i == 0 {
			first = st
		}
		g.check(st.LastSeq == first.LastSeq && st.PrefixHash == first.PrefixHash && st.LastAppliedSeq == st.LastSeq,
			"node %d journal at seq %d hash %.12s, node 0 at seq %d hash %.12s", i, st.LastSeq, st.PrefixHash, first.LastSeq, first.PrefixHash)
	}
	return g
}

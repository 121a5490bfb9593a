package server

// Shipped plans: plan once, execute on every shard.
//
// A predicate's interpretation (§3.2, Figure 5) is a pure function of
// corpus-global state that every node of a fleet replicates, so a routed
// /query or /topk used to run the same core.Interpret once per scatter
// leg. The router now resolves each distinct predicate once — POST /plan
// on one node — and attaches the answers to every leg as the request's
// optional `plan`. This file is the shard's half: the lossless wire form,
// the /plan endpoint, and the rule deciding which shipped entries a
// request may use.
//
// A shipped entry is used, under the read lock, in exactly two cases:
//
//   - It is stage 1 (method "w2v"). Stage 1 reads only what is frozen at
//     build time — the embedding model, the marker schema, the domain
//     phrases — and it runs first, so whether it answers, and what,
//     never changes while the process lives. (The same
//     argument makes core's domain-match memo never-invalidated.)
//   - Its gen equals this node's applied journal sequence. Stages 2–3
//     read the review index and co-occurrence statistics, which every
//     applied review moves; every node journals the one fleet-wide write
//     order, so two nodes at the same sequence hold the same such state
//     and the planning node's answer is this node's answer. A node that
//     ingests without a journal has no sequence to compare and never
//     takes this case.
//
// Anything else — a stale gen, a predicate the plan does not cover, a
// request with no plan at all — is interpreted locally exactly as before,
// so answers are byte-identical with or without a plan by construction.
//
// A plan is untrusted input: every entry is checked against the schema
// before the engine indexes anything with it (400 otherwise), used entries
// serve their own request only and never enter the engine's memos, and the
// /topk fragment memo is keyed by the interpretations actually used, so no
// plan can change what another request sees.
//
// Entries travel as raw JSON ([]json.RawMessage in the request bodies)
// because a router ships the same pre-encoded bytes for a predicate on
// every request: the shard remembers how each distinct entry decoded and
// checked — a pure function of the bytes and the immutable schema — so a
// repeated predicate costs a map lookup per leg, not a reflective decode.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/core"
)

// PlanTerm is one A.m target of a shipped interpretation.
type PlanTerm struct {
	Attr   string `json:"attr"`
	Marker int    `json:"marker"`
}

// PlanEntry is the lossless wire form of one core.Interpretation plus the
// applied journal sequence of the node that resolved it. (The rendered
// InterpretationJSON of /query and /interpret responses is for people: it
// flattens terms to "attr.marker" strings.)
type PlanEntry struct {
	Predicate     string     `json:"predicate"`
	Method        string     `json:"method"`
	Terms         []PlanTerm `json:"terms,omitempty"`
	Disjunction   bool       `json:"disjunction,omitempty"`
	MatchedPhrase string     `json:"matched_phrase,omitempty"`
	Similarity    float64    `json:"similarity"`
	Gen           uint64     `json:"gen"`
}

// NewPlanEntry renders an interpretation resolved at sequence gen.
func NewPlanEntry(in core.Interpretation, gen uint64) PlanEntry {
	e := PlanEntry{
		Predicate:     in.Predicate,
		Method:        string(in.Method),
		Disjunction:   in.Disjunction,
		MatchedPhrase: in.MatchedPhrase,
		Similarity:    in.Similarity,
		Gen:           gen,
	}
	for _, t := range in.Terms {
		e.Terms = append(e.Terms, PlanTerm{Attr: t.Attr, Marker: t.Marker})
	}
	return e
}

// Interpretation is NewPlanEntry's inverse.
func (e PlanEntry) Interpretation() core.Interpretation {
	in := core.Interpretation{
		Predicate:     e.Predicate,
		Method:        core.Method(e.Method),
		Disjunction:   e.Disjunction,
		MatchedPhrase: e.MatchedPhrase,
		Similarity:    e.Similarity,
	}
	for _, t := range e.Terms {
		in.Terms = append(in.Terms, core.AttrMarker{Attr: t.Attr, Marker: t.Marker})
	}
	return in
}

// Frozen reports whether the entry is stage 1, valid whatever its gen.
func (e PlanEntry) Frozen() bool { return e.Method == string(core.MethodW2V) }

// PlanRequest is the POST /plan body.
type PlanRequest struct {
	Predicates []string `json:"predicates"`
}

// PlanResponse is the /plan payload: one entry per requested predicate,
// in request order, all resolved at Gen.
type PlanResponse struct {
	Gen     uint64      `json:"gen"`
	Entries []PlanEntry `json:"entries"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req PlanRequest
	if err := DecodeJSONBody(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Predicates) == 0 {
		WriteError(w, http.StatusBadRequest, "missing predicates")
		return
	}
	resp := PlanResponse{Gen: s.appliedSeq, Entries: make([]PlanEntry, 0, len(req.Predicates))}
	for _, p := range req.Predicates {
		if strings.TrimSpace(p) == "" {
			WriteError(w, http.StatusBadRequest, "empty predicate")
			return
		}
		resp.Entries = append(resp.Entries, NewPlanEntry(s.interpret(p), resp.Gen))
	}
	WriteJSON(w, http.StatusOK, resp)
}

// interpret resolves a predicate on this node and counts the stage that
// answered.
func (s *Server) interpret(predicate string) core.Interpretation {
	in := s.db.Interpret(predicate)
	s.metrics.interpreted[in.Method].Inc()
	return in
}

// checkedEntry is a shipped entry that decoded and passed the schema
// check.
type checkedEntry struct {
	in     core.Interpretation
	gen    uint64
	frozen bool
}

// planDecodeMemo remembers checkedEntry by the entry's raw bytes. Both
// bounds are fixed: entries are client-sized, so only small ones are kept,
// and a full table is dropped whole (its values are pure functions of
// their keys, so dropping costs a decode and nothing else).
type planDecodeMemo struct {
	mu sync.RWMutex
	m  map[string]checkedEntry
}

const (
	planDecodeMemoEntries  = 4096
	planDecodeMemoMaxBytes = 1024
)

// checkPlanEntry decodes one raw entry strictly and checks it against the
// schema, through the decode memo.
func (s *Server) checkPlanEntry(raw json.RawMessage) (checkedEntry, error) {
	memo := &s.planDecoded
	memo.mu.RLock()
	ce, ok := memo.m[string(raw)]
	memo.mu.RUnlock()
	if ok {
		return ce, nil
	}
	var e PlanEntry
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return ce, fmt.Errorf("bad plan entry: %v", err)
	}
	if e.Predicate == "" {
		return ce, fmt.Errorf("plan entry without a predicate")
	}
	ce = checkedEntry{in: e.Interpretation(), gen: e.Gen, frozen: e.Frozen()}
	if err := s.db.CheckInterpretation(ce.in); err != nil {
		return ce, err
	}
	if len(raw) <= planDecodeMemoMaxBytes {
		memo.mu.Lock()
		if memo.m == nil || len(memo.m) >= planDecodeMemoEntries {
			memo.m = make(map[string]checkedEntry)
		}
		memo.m[string(raw)] = ce
		memo.mu.Unlock()
	}
	return ce, nil
}

// resolvePlan checks a request's shipped plan and returns the
// interpretations the engine may use in place of its own (see the file
// comment for the rule). The caller holds the read lock, so appliedSeq
// names exactly the state the request will execute against.
func (s *Server) resolvePlan(plan []json.RawMessage) (map[string]core.Interpretation, error) {
	if len(plan) == 0 {
		return nil, nil
	}
	ing := s.opts.Ingest
	genComparable := ing == nil || ing.Append != nil || ing.AppendBatch != nil
	resolved := make(map[string]core.Interpretation, len(plan))
	for _, raw := range plan {
		ce, err := s.checkPlanEntry(raw)
		if err != nil {
			return nil, err
		}
		if ce.frozen || (genComparable && ce.gen == s.appliedSeq) {
			resolved[ce.in.Predicate] = ce.in
			s.metrics.planUsed.Inc()
		} else {
			s.metrics.planStale.Inc()
		}
	}
	return resolved, nil
}

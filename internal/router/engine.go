package router

// Engine adapter: the router exposes the same Go-level query surface as
// *core.DB (harness.QueryEngine), which is how the sharding correctness
// contract is enforced — harness.QueryFingerprint drives a monolith and a
// router with identical calls and the fingerprints must match byte for
// byte. harness.QueryEngine's methods carry no context (they mirror the
// embedded engine), so the adapter binds one at construction: callers
// hand Engine the context whose cancellation and deadline should govern
// every routed call the harness makes, instead of the calls silently
// running on context.Background and outliving the caller.

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/server"
)

// Engine is the router bound to a caller's context, satisfying
// harness.QueryEngine.
type Engine struct {
	r   *Router
	ctx context.Context
}

// Engine binds the router to ctx. Every call through the returned
// adapter inherits ctx's cancellation and deadline (each scatter still
// applies the router's own per-round-trip timeout underneath).
func (r *Router) Engine(ctx context.Context) *Engine {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Engine{r: r, ctx: ctx}
}

// Interpret implements the engine surface by asking the fleet
// (interpretation state is replicated; see InterpretChain). A fleet-wide
// failure returns the zero Interpretation — fingerprint comparisons
// surface it as a mismatch rather than a hidden skip.
func (e *Engine) Interpret(text string) core.Interpretation {
	resp, _, err := e.r.InterpretChain(e.ctx, text)
	if err != nil {
		return core.Interpretation{}
	}
	in, err := interpretationFromJSON(resp.Chosen)
	if err != nil {
		return core.Interpretation{}
	}
	return in
}

// RankPredicates implements the engine surface over the scatter-gather
// /query path: the predicate conjunction is rendered as subjective SQL,
// fanned out, and the merged ranking converted back to engine rows. The
// objective callback cannot cross process boundaries; only nil is
// supported (exactly what the harness fingerprint passes).
func (e *Engine) RankPredicates(predicates []string, objective func(entityID string) bool, opts core.QueryOptions) (*core.QueryResult, error) {
	if objective != nil {
		return nil, fmt.Errorf("router: objective callbacks cannot be routed; filter with SQL comparisons instead")
	}
	// The wire protocol carries only SQL + k; every other option would be
	// silently dropped, so divergence from DefaultQueryOptions is an
	// explicit error rather than quietly different scores. (ReviewFilter
	// is a func and unroutable like objective; UseMarkers=false is the
	// Table 7 ablation, which the shard API does not expose.)
	if opts.ReviewFilter != nil {
		return nil, fmt.Errorf("router: ReviewFilter callbacks cannot be routed")
	}
	if !opts.UseMarkers {
		return nil, fmt.Errorf("router: the no-marker scan path is not exposed by the shard API")
	}
	sql, err := predicatesSQL(predicates)
	if err != nil {
		return nil, err
	}
	k := opts.TopK
	if k <= 0 {
		k = 10
	}
	res, err := e.r.Query(e.ctx, sql, k)
	if err != nil {
		return nil, err
	}
	out := &core.QueryResult{Rewritten: res.Rewritten}
	for _, row := range res.Rows {
		out.Rows = append(out.Rows, core.ResultRow{
			EntityID:        row.EntityID,
			Score:           row.Score,
			PredicateScores: row.PredicateScores,
		})
	}
	if len(res.Interpretations) > 0 {
		out.Interpretations = map[string]core.Interpretation{}
		for text, ij := range res.Interpretations {
			in, err := interpretationFromJSON(ij)
			if err != nil {
				return nil, err
			}
			out.Interpretations[text] = in
		}
	}
	return out, nil
}

// TopKThreshold implements the engine surface over the scatter-gather
// /topk path. The returned stats are fleet totals (see TopKResult).
func (e *Engine) TopKThreshold(predicates []string, k int) ([]core.ResultRow, core.TopKStats, error) {
	var stats core.TopKStats
	res, err := e.r.TopK(e.ctx, predicates, k)
	if err != nil {
		return nil, stats, err
	}
	stats.SortedAccesses = res.SortedAccesses
	stats.Depth = res.Depth
	stats.Candidates = res.Candidates
	rows := make([]core.ResultRow, 0, len(res.Rows))
	for _, row := range res.Rows {
		rows = append(rows, core.ResultRow{EntityID: row.EntityID, Score: row.Score})
	}
	return rows, stats, nil
}

// predicatesSQL renders a bare predicate conjunction as subjective SQL.
func predicatesSQL(predicates []string) (string, error) {
	if len(predicates) == 0 {
		return "", fmt.Errorf("router: no predicates")
	}
	parts := make([]string, 0, len(predicates))
	for _, p := range predicates {
		if strings.Contains(p, `"`) {
			return "", fmt.Errorf("router: predicate %q contains a double quote and cannot be rendered as SQL", p)
		}
		parts = append(parts, `"`+p+`"`)
	}
	return "SELECT * FROM Entities WHERE " + strings.Join(parts, " AND "), nil
}

// interpretationFromJSON reconstructs an engine Interpretation from the
// server's wire form. Terms arrive rendered as "attr.markerIndex"; the
// attribute name may itself contain dots, so the split is at the last
// one.
func interpretationFromJSON(ij server.InterpretationJSON) (core.Interpretation, error) {
	in := core.Interpretation{
		Predicate:     ij.Predicate,
		Method:        core.Method(ij.Method),
		Disjunction:   ij.Disjunction,
		MatchedPhrase: ij.MatchedPhrase,
		Similarity:    ij.Similarity,
	}
	for _, t := range ij.Terms {
		dot := strings.LastIndex(t, ".")
		if dot <= 0 || dot == len(t)-1 {
			return core.Interpretation{}, fmt.Errorf("router: malformed interpretation term %q", t)
		}
		marker, err := strconv.Atoi(t[dot+1:])
		if err != nil {
			return core.Interpretation{}, fmt.Errorf("router: malformed interpretation term %q: %v", t, err)
		}
		in.Terms = append(in.Terms, core.AttrMarker{Attr: t[:dot], Marker: marker})
	}
	return in, nil
}

package router

// Plan, then execute. Interpreting a predicate (§3.2, Figure 5) is the
// expensive step of a cold read, and its answer comes from state every
// shard replicates — so scattering the bare predicate made every leg
// compute the same interpretation. Query and TopK instead resolve each
// distinct predicate once and attach the answers to every leg as the
// request's `plan`; a shard uses a shipped entry when it is stage 1 or
// was resolved at the shard's own applied journal sequence, and
// interprets locally otherwise (internal/server/plan.go has the rule and
// why it keeps answers byte-identical).
//
// Resolution is the memo (cache.go) first. What the memo lacks is
// fetched with one POST /plan per home shard — hash(predicate) mod
// shards, so each shard's own interpretation memo fills with a disjoint
// slice of the predicates instead of a copy of all of them — served by
// the home range's replica set and failing over to the next shard the way
// /interpret does. Planning is best effort: a predicate no shard could
// plan is simply left out, and the scatter's legs interpret it themselves.

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// homeShard is FNV-1a over the predicate, folded to a shard: a stable
// assignment, so a restarted router keeps finding the shards' memos warm.
func homeShard(predicate string, shards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(predicate); i++ {
		h ^= uint32(predicate[i])
		h *= 16777619
	}
	return int(h % uint32(shards))
}

// plan resolves the given predicates (duplicates allowed) and returns one
// pre-encoded server.PlanEntry per distinct predicate it could resolve.
func (r *Router) plan(ctx context.Context, predicates []string) []*shippedEntry {
	start := time.Now()
	ctx, span := r.tracer.Start(ctx, "router.plan")
	defer func() {
		span.End()
		r.metrics.plan.ObserveSince(start)
	}()

	distinct := predicates
	if len(predicates) > 1 {
		distinct = make([]string, 0, len(predicates))
		seen := make(map[string]bool, len(predicates))
		for _, p := range predicates {
			if !seen[p] {
				seen[p] = true
				distinct = append(distinct, p)
			}
		}
	}
	plans, gen := r.planCached(distinct)

	// Group what the memo lacks by home shard; at[i] remembers where each
	// fetched entry belongs so the shipped order follows the predicates.
	type group struct {
		shard int
		preds []string
		at    []int
	}
	var groups []*group
	for i, p := range distinct {
		if plans[i] != nil {
			continue
		}
		h := homeShard(p, len(r.shards))
		var g *group
		for _, have := range groups {
			if have.shard == h {
				g = have
			}
		}
		if g == nil {
			g = &group{shard: h}
			groups = append(groups, g)
		}
		g.preds, g.at = append(g.preds, p), append(g.at, i)
	}
	span.SetAttr("cached", strconv.FormatBool(len(groups) == 0))
	if len(groups) > 0 {
		answered := make([]string, len(groups))
		gens := make([]string, len(groups))
		var wg sync.WaitGroup
		for gi, g := range groups {
			wg.Add(1)
			go func(gi int, g *group) {
				defer wg.Done()
				resp, shard := r.fetchPlan(ctx, g.shard, g.preds)
				if resp == nil {
					return
				}
				answered[gi], gens[gi] = strconv.Itoa(shard), strconv.FormatUint(resp.Gen, 10)
				for i, e := range resp.Entries {
					b, err := json.Marshal(e)
					if err != nil {
						continue
					}
					plans[g.at[i]] = newShippedEntry(b)
					r.planStore(e.Predicate, plans[g.at[i]], e.Frozen(), gen)
				}
			}(gi, g)
		}
		wg.Wait()
		span.SetAttr("shard", strings.Join(answered, ","))
		span.SetAttr("gen", strings.Join(gens, ","))
	}

	out := plans[:0]
	for _, e := range plans {
		if e != nil {
			out = append(out, e)
		}
	}
	return out
}

// fetchPlan asks home — or, failing that, the shards after it — to
// interpret predicates, and returns the answer with the shard that gave
// it; nil when no shard did, or when the answer is not one entry per
// predicate in request order.
func (r *Router) fetchPlan(ctx context.Context, home int, predicates []string) (*server.PlanResponse, int) {
	body, err := json.Marshal(server.PlanRequest{Predicates: predicates})
	if err != nil {
		return nil, -1
	}
	resp, shard, err := firstSuccess[server.PlanResponse](r, ctx, "plan", "POST", "/plan", body, home)
	if err != nil || len(resp.Entries) != len(predicates) {
		return nil, -1
	}
	for i, e := range resp.Entries {
		if e.Predicate != predicates[i] {
			return nil, -1
		}
	}
	return resp, shard
}

package router

// The front door's predicate memo: what the router remembers about a
// predicate's interpretation, under one LRU, one mutex and one
// generation. A predicate's interpretation is a pure function of
// corpus-global model state, which is REPLICATED and byte-identical on
// every shard, so once any shard has answered the router need not ask
// again. An entry holds up to two things:
//
//   - chain: the /interpret answer, served without a hop (X-Interpret-
//     Cache headers, the interpret hit/miss counters).
//   - plan: the predicate's interpretation as a pre-encoded
//     server.PlanEntry, which Query and TopK attach to every scatter leg
//     so the shards execute instead of each interpreting again (plan.go;
//     the plan hit/miss counters). Pre-encoded both ways it travels, so a
//     hit costs a copy into the request and no marshal or escaping.
//
// Validity is the shards' rule (internal/server/plan.go) seen from the
// front door. A stage-1 plan reads only build-time state and is kept
// until the LRU evicts it. Everything else — a stage-2/3 plan, and every
// chain, whose diagnostics mine the reviews — is valid for one memo
// generation: an accepted write or a repair backfill advances the
// generation and with it retires every such entry at once, without
// touching the stage-1 plans. The same generation fences stale fills: a
// fetch that started before a write must not memoize its pre-write
// answer after the invalidation. Correctness never rests on any of this —
// a shard compares a shipped stage-2/3 entry's gen with its own applied
// sequence and interprets locally on a mismatch — it only decides how
// often the router hops.
//
// The deterministic LRU bound keeps memory finite against unbounded
// distinct predicates (the predicate string is arbitrary client input)
// while keeping exactly the hot predicates resident: reaching the cap
// evicts the single least-recently-used entry.

import (
	"encoding/json"
	"net/url"

	"repro/internal/server"
)

// maxInterpretCacheEntries bounds the memo; reaching it evicts the
// least-recently-used predicate (correctness never depends on
// residency).
const maxInterpretCacheEntries = 4096

// shippedEntry is one encoded server.PlanEntry in the two forms a scatter
// carries it: a JSON value for /query's body and a ready `&plan=…`
// parameter for /topk's target. Immutable once built.
type shippedEntry struct {
	json  json.RawMessage
	param string
}

func newShippedEntry(encoded []byte) *shippedEntry {
	return &shippedEntry{json: encoded, param: "&plan=" + url.QueryEscape(string(encoded))}
}

// memoEntry is one predicate's memo. Entries are values: a store replaces
// the entry, and the chain and plan it points at are never mutated.
type memoEntry struct {
	chain *server.InterpretResponse
	plan  *shippedEntry
	// frozen marks plan as stage 1; gen is the memo generation that chain
	// and a non-frozen plan were filled under.
	frozen bool
	gen    uint64
}

// current drops whatever part of the entry the generation has retired.
func (e memoEntry) current(gen uint64) memoEntry {
	if e.gen != gen {
		e.chain, e.gen = nil, gen
		if !e.frozen {
			e.plan = nil
		}
	}
	return e
}

// interpretCached returns the memoized /interpret response for a
// predicate (nil on a miss) and the memo generation the caller must hand
// back to interpretStore. A hit promotes the predicate to
// most-recently-used.
func (r *Router) interpretCached(predicate string) (*server.InterpretResponse, uint64) {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	if e, ok := r.memo.Get(predicate); ok {
		if e = e.current(r.memoGen); e.chain != nil {
			r.metrics.interpretHits.Inc()
			return e.chain, r.memoGen
		}
	}
	r.metrics.interpretMiss.Inc()
	return nil, r.memoGen
}

// interpretStore memoizes a shard's /interpret response, unless the memo
// moved to a new generation since the caller's lookup — then the response
// was computed against pre-invalidation state and memoizing it would
// serve a stale interpretation indefinitely.
func (r *Router) interpretStore(predicate string, resp *server.InterpretResponse, gen uint64) {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	if gen != r.memoGen {
		return
	}
	e, _ := r.memo.Peek(predicate)
	e = e.current(gen)
	e.chain = resp
	r.memo.Put(predicate, e)
}

// planCached returns the memoized plan entry of each predicate (nil where
// the memo has none) and the generation to hand back to planStore.
func (r *Router) planCached(predicates []string) ([]*shippedEntry, uint64) {
	plans := make([]*shippedEntry, len(predicates))
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	for i, p := range predicates {
		if e, ok := r.memo.Get(p); ok {
			plans[i] = e.current(r.memoGen).plan
		}
		if plans[i] != nil {
			r.metrics.planHits.Inc()
		} else {
			r.metrics.planMisses.Inc()
		}
	}
	return plans, r.memoGen
}

// planStore memoizes one resolved plan entry. A stage-1 entry is stored
// whatever happened since the lookup; any other only while the memo is
// still in the lookup's generation.
func (r *Router) planStore(predicate string, plan *shippedEntry, frozen bool, gen uint64) {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	if !frozen && gen != r.memoGen {
		return
	}
	e, _ := r.memo.Peek(predicate)
	e = e.current(r.memoGen)
	e.plan, e.frozen = plan, frozen
	r.memo.Put(predicate, e)
}

// invalidateInterpret advances the memo generation — called on every
// write the fleet accepted and on every repair backfill. It retires every
// chain and every stage-2/3 plan; stage-1 plans survive.
func (r *Router) invalidateInterpret() {
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	r.memoGen++
}

// InterpretCacheStats reports the /interpret memo's lifetime hit/miss
// counters (the same values /metrics exposes).
func (r *Router) InterpretCacheStats() (hits, misses uint64) {
	return r.metrics.interpretHits.Value(), r.metrics.interpretMiss.Value()
}

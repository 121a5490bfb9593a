package router

// Replica-set serving: each shard range may be backed by R equivalent
// backends (Shard.Backend plus Shard.Replicas). Reads are load-balanced
// across the set with power-of-two-choices on in-flight count, failing
// replicas are ejected from the pick and reinstated after a cooldown,
// and slow scatter legs are hedged — after an adaptive delay derived
// from the shard's scatter-latency histogram (~p95), the same fragment
// fires at a second replica, the first authoritative reply wins, and
// the loser's context is cancelled. At most two legs ever run for one
// fragment, so hedging bounds tail latency without doubling fleet load.
//
// Correctness: every replica of a range serves the same snapshot and
// journals the same fleet-wide write order (write.go fans writes out to
// every replica of every range; repair.go heals the ones that miss),
// so any replica's answer carries the exact bytes any other's would —
// the byte-identity contract survives load balancing and hedging.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

const (
	// ejectAfterFailures consecutive transport failures or 5xx replies
	// eject a replica from the load-balanced pick.
	ejectAfterFailures = 3
	// defaultEjectFor is how long an ejected replica sits out before the
	// pick considers it again (reinstatement is lazy: the next pick after
	// the cooldown may probe it, and a success clears the strike count).
	defaultEjectFor = 2 * time.Second
	// hedgeMinSamples is how many scatter observations a shard's
	// histogram needs before its p95 is trusted; colder shards hedge at
	// hedgeColdDelay.
	hedgeMinSamples = 32
	hedgeColdDelay  = 10 * time.Millisecond
	// hedgeMinDelay floors the adaptive delay so a microsecond-fast
	// fleet does not hedge virtually every request.
	hedgeMinDelay = time.Millisecond
)

// replica is one backend of a shard's replica set plus the mutable
// balancing state the pick reads: in-flight count (power-of-two-choices
// compares these), consecutive-failure strikes, and the ejection
// deadline. Its position in the fleet is (shard, idx); the flat node
// index is a property of the current fleetView, not of the replica —
// join and retire renumber the flat space, never the replica itself.
type replica struct {
	backend Backend
	shard   int // shard (range) index
	idx     int // position within the shard's replica set

	inflight     atomic.Int64
	fails        atomic.Int64
	ejectedUntil atomic.Int64 // unix nanos; 0 = healthy
	ejections    atomic.Uint64

	// Pre-resolved per-replica instruments (metrics.go). They live on
	// the replica — not in shard×replica arrays — so a joined replica
	// brings its own series and a retired one simply stops moving.
	seconds   *obs.Histogram
	picked    *obs.Counter
	hedgeWins *obs.Counter
	repairLag *obs.Gauge
}

// healthy reports whether the replica is currently in the pick.
func (rep *replica) healthy(now int64) bool { return rep.ejectedUntil.Load() <= now }

// recordSuccess clears the strike count and any ejection — one good
// reply fully reinstates a replica.
func (rep *replica) recordSuccess() {
	rep.fails.Store(0)
	rep.ejectedUntil.Store(0)
}

// recordFailure adds a strike and ejects the replica once it
// accumulates ejectAfterFailures of them. Arming an ejection resets the
// strike count, so a reinstated replica faces a fresh
// ejectAfterFailures budget — not an instant re-ejection on its first
// post-cooldown wobble. Failures recorded while the replica is already
// ejected are ignored: they come from full-set fallback traffic (on a
// single-replica range every leg keeps failing for as long as the node
// is down), and extending ejectedUntil on each one would push the lazy
// reinstatement probe out indefinitely.
func (rep *replica) recordFailure(ejectFor time.Duration) {
	now := time.Now().UnixNano()
	if !rep.healthy(now) {
		return
	}
	if rep.fails.Add(1) >= ejectAfterFailures {
		rep.fails.Store(0)
		rep.ejectedUntil.Store(now + ejectFor.Nanoseconds())
		rep.ejections.Add(1)
	}
}

// NodeError attributes one failed request leg to the exact replica that
// failed it, so operators can tell a dead replica from a dead range.
type NodeError struct {
	// Shard is the range index; Replica the backend's position in that
	// range's replica set.
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	Backend string `json:"backend,omitempty"`
	Error   string `json:"error"`
}

// pickReplica chooses a replica of shard for one request leg from the
// current fleet view. Kept as the single-call form for tests and
// callers that do not already hold a view.
func (r *Router) pickReplica(shard, exclude int) *replica {
	rep, _ := r.pickFrom(r.view.Load().reps[shard], exclude)
	return rep
}

// pickFrom chooses a replica from one range's replica set:
// power-of-two-choices on in-flight count among the healthy replicas,
// excluding replica index exclude (-1 excludes nothing). When every
// candidate is ejected the pick falls back to the full set — ejection
// sheds load from a flapping replica, it must not turn a degraded
// shard into a dead one; fallback reports that this happened so the
// leg's span can say so. Returns nil only when exclusion empties the
// set.
func (r *Router) pickFrom(set []*replica, exclude int) (chosen *replica, fallback bool) {
	now := time.Now().UnixNano()
	cands := make([]*replica, 0, len(set))
	for _, rep := range set {
		if rep.idx == exclude || !rep.healthy(now) {
			continue
		}
		cands = append(cands, rep)
	}
	if len(cands) == 0 {
		fallback = true
		for _, rep := range set {
			if rep.idx != exclude {
				cands = append(cands, rep)
			}
		}
	}
	switch len(cands) {
	case 0:
		return nil, fallback
	case 1:
		chosen = cands[0]
	default:
		r.pickMu.Lock()
		a := r.pickRng.Intn(len(cands))
		b := r.pickRng.Intn(len(cands) - 1)
		r.pickMu.Unlock()
		if b >= a {
			b++
		}
		// Lower in-flight wins; a tie goes to the first sample (itself a
		// uniform draw, so ties spread evenly and deterministically under a
		// seeded RNG).
		chosen = cands[a]
		if cands[b].inflight.Load() < chosen.inflight.Load() {
			chosen = cands[b]
		}
	}
	chosen.picked.Inc()
	return chosen, fallback
}

// authoritative reports whether a leg's reply settles the fragment: any
// transport-level success with a non-5xx status. A 4xx is a deliberate
// answer (replicas serve the same engine, so rejections are unanimous)
// and must not trigger a futile retry on a peer.
func authoritative(rep shardReply) bool {
	return rep.err == nil && rep.status < 500
}

// doReplica runs one request leg against a replica, maintaining its
// in-flight count and health state. A leg cancelled by its own context
// (a hedge loser, or the caller giving up) is neither a success nor a
// strike — cancellation says nothing about the replica; its span is
// marked cancelled, never errored, so a hedge loser cannot force its
// trace into the error-retained ring. fallback annotates legs served
// through the all-ejected full-set fallback.
func (r *Router) doReplica(legCtx context.Context, rep *replica, fallback bool, method, target string, body []byte) shardReply {
	legCtx, span := r.tracer.Start(legCtx, "router.leg")
	span.SetAttr("shard", strconv.Itoa(rep.shard))
	span.SetAttr("replica", strconv.Itoa(rep.idx))
	span.SetAttr("backend", rep.backend.Name())
	if fallback {
		span.SetAttr("ejection_fallback", "true")
	}
	rep.inflight.Add(1)
	t0 := time.Now()
	status, b, err := rep.backend.Do(legCtx, method, target, body)
	rep.inflight.Add(-1)
	out := shardReply{status: status, body: b, err: err, replica: rep.idx, span: span}
	if err != nil && legCtx.Err() != nil {
		span.SetAttr("cancelled", "true")
		span.End()
		return out
	}
	if err != nil || status >= 500 {
		if err != nil {
			span.SetError(err.Error())
		} else {
			span.SetError(fmt.Sprintf("status %d", status))
		}
		span.End()
		rep.recordFailure(r.ejectFor)
		return out
	}
	span.SetAttr("status", strconv.Itoa(status))
	span.End()
	rep.recordSuccess()
	rep.seconds.ObserveSince(t0)
	return out
}

// hedgeDelayFor derives the hedge delay for one shard: the fixed
// Options.HedgeDelay when set, otherwise ~p95 of the shard's scatter
// fragment histogram (clamped to [hedgeMinDelay, timeout/2]), falling
// back to hedgeColdDelay until enough samples accumulate. Adapting to
// the measured tail means the fleet hedges roughly the slowest 5% of
// legs — enough to flatten the tail, too few to matter for load.
func (r *Router) hedgeDelayFor(shard int) time.Duration {
	if r.hedgeDelay > 0 {
		return r.hedgeDelay
	}
	h := r.metrics.shardSeconds[shard]
	if h.Count() < hedgeMinSamples {
		return hedgeColdDelay
	}
	d := time.Duration(h.Quantile(0.95) * float64(time.Second))
	if d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	if max := r.timeout / 2; d > max {
		d = max
	}
	return d
}

// shardRequest serves one fragment from a shard's replica set: pick a
// replica, hedge to a second one if the first is slow (or fail over
// immediately if it errors fast), return the first authoritative reply
// and cancel the losing leg. Single-replica sets take the plain path —
// the R=1 fleet pays nothing for the machinery.
func (r *Router) shardRequest(ctx context.Context, shard int, method, target string, body []byte) shardReply {
	// One view per fragment: both legs of a hedged pair come from the
	// same topology even if a join or retire swaps the view mid-flight.
	set := r.view.Load().reps[shard]
	first, firstFallback := r.pickFrom(set, -1)
	if first == nil {
		return shardReply{err: fmt.Errorf("shard %d has no replicas", shard), replica: -1}
	}
	if len(set) == 1 {
		return r.doReplica(ctx, first, firstFallback, method, target, body)
	}

	// Legs get individually cancellable contexts under one parent; the
	// results channel is buffered so an abandoned leg's goroutine can
	// always deliver and exit.
	legCtx, cancelLegs := context.WithCancel(ctx)
	defer cancelLegs()
	results := make(chan shardReply, 2)
	launch := func(rep *replica, fallback bool) {
		go func() {
			results <- r.doReplica(legCtx, rep, fallback, method, target, body)
		}()
	}
	launch(first, firstFallback)
	pending := 1

	var hedgeCh <-chan time.Time
	if r.hedge {
		t := time.NewTimer(r.hedgeDelayFor(shard))
		defer t.Stop()
		hedgeCh = t.C
	}
	secondLaunched := false
	hedged := false
	var secondRep *replica
	launchSecond := func(isHedge bool) {
		if secondLaunched {
			return
		}
		second, secondFallback := r.pickFrom(set, first.idx)
		if second == nil {
			return
		}
		secondLaunched = true
		secondRep = second
		pending++
		if isHedge {
			hedged = true
			r.metrics.hedgeFired.Inc()
		}
		launch(second, secondFallback)
	}

	var fails []shardReply
	for {
		select {
		case rep := <-results:
			pending--
			if authoritative(rep) {
				// Cancel the losing leg promptly; its goroutine drains into
				// the buffered channel and exits on its own.
				cancelLegs()
				if hedged {
					// Stamp hedge attribution onto the winning leg's span —
					// deliberately after End(); the collector renders live
					// span state, so the attribution shows up in the trace.
					rep.span.SetAttr("hedge_fired", "true")
					if rep.replica != first.idx {
						rep.span.SetAttr("hedge_won", "true")
					} else {
						rep.span.SetAttr("hedge_won", "false")
					}
				}
				if hedged && rep.replica != first.idx {
					r.metrics.hedgeWins.Inc()
					if secondRep != nil {
						secondRep.hedgeWins.Inc()
					}
				}
				return rep
			}
			fails = append(fails, rep)
			if !secondLaunched {
				// The first leg failed outright before any hedge fired: fail
				// over to a second replica immediately.
				hedgeCh = nil
				launchSecond(false)
			}
			if pending == 0 {
				return r.combineLegFailures(shard, fails)
			}
		case <-hedgeCh:
			hedgeCh = nil
			launchSecond(true)
		case <-ctx.Done():
			return shardReply{err: ctx.Err(), replica: -1, fails: legFailures(r, shard, fails)}
		}
	}
}

// combineLegFailures folds every failed leg of one fragment into a
// single reply whose error names each replica, and whose fails list
// carries the structured per-replica attribution for FailedNodes.
func (r *Router) combineLegFailures(shard int, fails []shardReply) shardReply {
	nodeErrs := legFailures(r, shard, fails)
	parts := make([]string, 0, len(nodeErrs))
	for _, ne := range nodeErrs {
		parts = append(parts, fmt.Sprintf("replica %d (%s): %s", ne.Replica, ne.Backend, ne.Error))
	}
	return shardReply{
		err:     fmt.Errorf("%s", strings.Join(parts, "; ")),
		replica: -1,
		fails:   nodeErrs,
	}
}

// legFailures renders failed legs as NodeErrors.
func legFailures(r *Router, shard int, fails []shardReply) []NodeError {
	out := make([]NodeError, 0, len(fails))
	for _, f := range fails {
		out = append(out, NodeError{
			Shard:   shard,
			Replica: f.replica,
			Backend: r.backendName(shard, f.replica),
			Error:   replyError(f),
		})
	}
	return out
}

// backendName resolves a replica's display name by its in-set index;
// unknown indexes (synthetic replies, or a replica retired since the
// reply was produced) get the shard's primary.
func (r *Router) backendName(shard, replicaIdx int) string {
	for _, rep := range r.view.Load().reps[shard] {
		if rep.idx == replicaIdx {
			return rep.backend.Name()
		}
	}
	return r.shards[shard].Backend.Name()
}

// nodeFailures converts a failed shard reply into replica-attributed
// NodeErrors: the structured per-leg list when the reply carries one,
// otherwise the single leg that produced the reply.
func (r *Router) nodeFailures(shard int, rep shardReply) []NodeError {
	if len(rep.fails) > 0 {
		return rep.fails
	}
	return []NodeError{{
		Shard:   shard,
		Replica: rep.replica,
		Backend: r.backendName(shard, rep.replica),
		Error:   replyError(rep),
	}}
}

// scatterNodes probes every node of the fleet — every replica of every
// shard — concurrently. Health and identity checks use it: they are
// about the nodes themselves, so load balancing and hedging must not
// hide one.
func (r *Router) scatterNodes(ctx context.Context, method, target string) (*fleetView, []shardReply) {
	ctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	v := r.view.Load()
	replies := make([]shardReply, len(v.nodes))
	done := make(chan int, len(v.nodes))
	for i := range v.nodes {
		go func(i int) {
			rep := v.nodes[i]
			status, b, err := rep.backend.Do(ctx, method, target, nil)
			replies[i] = shardReply{status: status, body: b, err: err, replica: rep.idx}
			done <- i
		}(i)
	}
	for range v.nodes {
		<-done
	}
	return v, replies
}

// HedgeStats reports how many hedge legs the router has fired and how
// many of them beat the original leg — what `opinedbload -slow-replica`
// logs and the hedging tests assert on.
func (r *Router) HedgeStats() (fired, wins uint64) {
	return r.metrics.hedgeFired.Value(), r.metrics.hedgeWins.Value()
}

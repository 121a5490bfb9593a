package router

// Write path: the router scatter-routes POST /reviews over the fleet.
// Per-entity state lives on exactly one shard range (the manifest-range
// owner), but corpus-global model state — the review BM25 index,
// sentiment and co-occurrence statistics — is REPLICATED, and a write
// must reach every node of it or interpretations would diverge across
// the fleet. So a routed write is owner-first (one replica of the owning
// range validates and journals the authoritative copy; its rejection
// aborts the write fleet-wide with nothing mutated — if that replica is
// unreachable the hop fails over to the next replica of the range), then
// replicated to EVERY other node — every replica of every shard,
// including the owner range's peer replicas, which serve the entity and
// so materialize the full write, not just its global half. That is what
// lets a hedged read land on any replica and still see the exact bytes
// the primary would produce.
//
// Writes are serialized fleet-wide by the router's write mutex: every
// shard journals and applies reviews in one total order, which is what
// keeps the floating-point accumulations of the marker summaries — and
// therefore the whole query fingerprint — byte-identical between a
// monolith and any sharded deployment ingesting the same sequence.
//
// A node that missed a write is dirty (repair.go) and receives nothing
// but its backfill: the owner hop and the fan-out skip it, and the repair
// pass that follows streams it every write it missed, in fleet order. So
// a node's journal is always a prefix of the fleet order; it never holds
// a later write without an earlier one.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/server"
)

// StatusError carries a shard's deliberate HTTP rejection through the
// router so the front door can pass status and JSON envelope to the
// client verbatim (a 409 duplicate or 404 unknown entity is a valid
// routed answer, not a fleet failure).
type StatusError struct {
	Status int
	Body   []byte
	// Shard is the shard index that rejected; Replica the replica within
	// its set that answered (-1 when no backend answered).
	Shard   int
	Replica int
	// Heal carries the replica fan-out outcome of a 409 duplicate (a
	// retry's purpose is healing a previously partial replication); nil
	// for every other rejection. The handler merges it into the response
	// so a client can see whether its retry actually converged the fleet
	// or must be retried again.
	Heal *ReviewResult
}

// Error implements error.
func (e *StatusError) Error() string {
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(e.Body, &env) == nil && env.Error != "" {
		return fmt.Sprintf("router: shard %d rejected write: status %d: %s", e.Shard, e.Status, env.Error)
	}
	return fmt.Sprintf("router: shard %d rejected write: status %d", e.Shard, e.Status)
}

// ReviewResult is the router's answer to a routed write: the owning
// shard's acknowledgement plus how replication to the rest of the fleet
// went.
type ReviewResult struct {
	server.ReviewResponse
	// OwnerShard is the manifest-range owner that materialized the
	// per-entity state; OwnerReplica the replica of that range that took
	// the authoritative write (non-zero after an owner failover).
	OwnerShard   int `json:"owner_shard"`
	OwnerReplica int `json:"owner_replica,omitempty"`
	// Replicated counts the other fleet nodes (every replica of every
	// shard) that absorbed the write.
	Replicated int `json:"replicated"`
	// Partial is true when at least one node did not absorb the write:
	// it failed, or it was dirty and skipped. ShardErrors names them by
	// shard range (one combined message per range); FailedNodes
	// attributes each to the exact replica. The router immediately runs
	// a repair pass against them; Healed lists the flat node indexes
	// that converged before this response was sent (the rest stay dirty
	// and are retried on subsequent writes). With single-replica shards
	// node indexes ARE shard indexes.
	Partial     bool           `json:"partial,omitempty"`
	ShardErrors map[int]string `json:"shard_errors,omitempty"`
	FailedNodes []NodeError    `json:"failed_nodes,omitempty"`
	Healed      []int          `json:"healed,omitempty"`
	// fresh counts replicas that newly applied the write (200, not a 409
	// no-op) — it decides whether the interpret memo must invalidate.
	fresh int
}

// writeBody renders the shard-API request body for one review; replica
// marks the fan-out copies so non-owning shards absorb the global state
// (a non-replica write for an unserved entity is rejected by every
// shard, which is how the range owner vetoes ghost entities before
// anything mutates).
func writeBody(req server.ReviewRequest, replica bool) ([]byte, error) {
	req.Replica = replica
	b, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("router: encode review: %w", err)
	}
	return b, nil
}

// AddReview routes one review write through the fleet: owner-first, then
// replication (see the file comment for why every shard sees the write).
// The owner's deliberate rejections come back as *StatusError so the HTTP
// layer can pass them through; transport failures are plain errors.
func (r *Router) AddReview(ctx context.Context, req server.ReviewRequest) (*ReviewResult, error) {
	owner := r.ownerOf(req.EntityID)
	if owner < 0 {
		body, _ := json.Marshal(map[string]string{
			"error": fmt.Sprintf("no shard owns entity %q (write routing needs manifest entity ranges)", req.EntityID),
		})
		return nil, &StatusError{Status: http.StatusNotFound, Body: body, Shard: -1}
	}
	body, err := writeBody(req, false)
	if err != nil {
		return nil, err
	}
	replicaBody, err := writeBody(req, true)
	if err != nil {
		return nil, err
	}

	// One total write order across the fleet; see the file comment.
	r.writeMu.Lock()
	defer r.writeMu.Unlock()

	// Heal-before-write: if earlier writes left nodes dirty, run the
	// repair pass BEFORE this write fans out, so a node that just came
	// back receives its missed suffix first and then this write.
	healedBefore := r.healLocked(ctx)

	// Owner hop with failover: clean replicas of the owning range are
	// equivalent, so any of them can take the authoritative write. Try
	// them in index order; the first that answers at all (any status) is
	// authoritative — a deliberate rejection must abort, not hop to a
	// peer that would accept. A replica whose attempt errored may have
	// journaled the write anyway (a timeout after its commit), so it turns
	// dirty: it is sent nothing more until a repair pass proves its
	// journal a prefix of a clean node's. The view is stable for the
	// whole write: joins and retires serialize on writeMu, which we hold.
	v := r.view.Load()
	var ownerRep *replica
	var status int
	var respBody []byte
	var firstErr error
	ctx, ownerSpan := r.tracer.Start(ctx, "write.owner")
	ownerSpan.SetAttr("shard", strconv.Itoa(owner))
	clean := 0
	for _, rep := range v.reps[owner] {
		if len(r.dirty) > 0 && r.dirty[v.nodeIndex(rep)] {
			continue
		}
		clean++
		ownerCtx, cancel := context.WithTimeout(ctx, r.timeout)
		st, b, err := rep.backend.Do(ownerCtx, "POST", "/reviews", body)
		cancel()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("router: write: owner shard %d (%s): %w", owner, rep.backend.Name(), err)
			}
			if ctx.Err() == nil {
				rep.recordFailure(r.ejectFor)
			}
			r.markDirtyLocked(map[int]string{v.nodeIndex(rep): err.Error()})
			continue
		}
		// Health accounting mirrors the read path (doReplica): a 5xx is
		// authoritative for THIS write (failing over could double-apply a
		// review that landed before the failure) but still a strike; any
		// deliberate answer — 200, 409 dup, 404 ghost — proves the replica
		// alive and must never strike.
		if st >= 500 {
			rep.recordFailure(r.ejectFor)
		} else {
			rep.recordSuccess()
		}
		ownerRep, status, respBody = rep, st, b
		break
	}
	if clean == 0 {
		// Every replica of the range is behind the fleet: none may take a
		// write before its backfill, so nothing is journaled anywhere.
		body, _ := json.Marshal(map[string]string{
			"error": fmt.Sprintf("shard %d has no replica level with the fleet: every replica is awaiting repair; retry later", owner),
		})
		ownerSpan.SetError("owning range has no clean replica")
		ownerSpan.End()
		return nil, &StatusError{Status: http.StatusServiceUnavailable, Body: body, Shard: owner, Replica: -1}
	}
	if ownerRep == nil {
		ownerSpan.SetError(firstErr.Error())
		ownerSpan.End()
		return nil, firstErr
	}
	ownerSpan.SetAttr("replica", strconv.Itoa(ownerRep.idx))
	ownerSpan.SetAttr("status", strconv.Itoa(status))
	ownerSpan.End()
	ownerNode := v.nodeIndex(ownerRep)
	if status == http.StatusConflict {
		// The owner already committed this review — the signature of a
		// client retry after a partial replication failure. The retry's
		// purpose is healing, so run the replica fan-out anyway (replicas
		// that have the review answer 409 and are counted replicated;
		// ones that missed it backfill now) and report the outcome with
		// the duplicate so the client knows whether the fleet converged.
		heal := &ReviewResult{OwnerShard: owner, OwnerReplica: ownerRep.idx}
		r.replicateAndHeal(ctx, v, ownerNode, replicaBody, heal, healedBefore)
		if heal.fresh > 0 {
			// Only a node that newly absorbed the write changes
			// replicated state; an all-409 duplicate retry is a no-op and
			// must not wipe the hot memo.
			r.invalidateInterpret()
		}
		return nil, &StatusError{Status: status, Body: respBody, Shard: owner, Replica: ownerRep.idx, Heal: heal}
	}
	if status != http.StatusOK {
		return nil, &StatusError{Status: status, Body: respBody, Shard: owner, Replica: ownerRep.idx}
	}
	var ack server.ReviewResponse
	if err := json.Unmarshal(respBody, &ack); err != nil {
		return nil, fmt.Errorf("router: write: owner shard %d: bad response: %v", owner, err)
	}

	res := &ReviewResult{ReviewResponse: ack, OwnerShard: owner, OwnerReplica: ownerRep.idx}
	r.replicateAndHeal(ctx, v, ownerNode, replicaBody, res, healedBefore)
	// The fleet accepted new evidence; the front door's interpretation
	// memo is stale.
	r.invalidateInterpret()
	return res, nil
}

// replicateAndHeal fans the write out and, when a node missed it, marks
// the node dirty and runs one repair pass while the write mutex is still
// held — a transient fault heals before any later write can land.
// Caller holds writeMu.
func (r *Router) replicateAndHeal(ctx context.Context, v *fleetView, ownerNode int, replicaBody []byte, res *ReviewResult, healedBefore []int) {
	failed := r.replicate(ctx, v, ownerNode, replicaBody, res)
	res.Partial = len(failed) > 0
	res.Healed = healedBefore
	if res.Partial {
		r.markDirtyLocked(failed)
		res.Healed = mergeHealed(healedBefore, r.healLocked(ctx))
	}
}

// mergeHealed concatenates two healed-shard lists without duplicates (a
// shard can converge in the heal-before-write pass, fail THIS write's
// fan-out, and converge again in the post-write pass — one entry, not
// two).
func mergeHealed(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	seen := make(map[int]bool, len(a)+len(b))
	out := make([]int, 0, len(a)+len(b))
	for _, lst := range [][]int{a, b} {
		for _, i := range lst {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	return out
}

// replicate fans the committed write out to every clean fleet node
// except the one that took the authoritative copy — every replica of
// every shard. A dirty node is not sent the write: it is reported as a
// failure and receives the write through repair, after the ones it
// missed. It accumulates the outcome into res and returns the failures
// keyed by flat node index (the key space the dirty set and repair use).
// The fan-out is concurrent — nodes commute for a single review, and the
// write mutex already orders distinct reviews.
func (r *Router) replicate(ctx context.Context, v *fleetView, ownerNode int, replicaBody []byte, res *ReviewResult) map[int]string {
	ctx, span := r.tracer.Start(ctx, "write.replicate")
	defer func() {
		span.SetAttr("replicated", strconv.Itoa(res.Replicated))
		span.SetAttr("failed", strconv.Itoa(len(res.FailedNodes)))
		span.End()
	}()
	var wg sync.WaitGroup
	var mu sync.Mutex
	failed := map[int]string{}
	for i, n := range v.nodes {
		if i == ownerNode {
			continue
		}
		if r.dirty[i] {
			mu.Lock()
			failed[i] = behindFleet
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(i int, n *replica) {
			defer wg.Done()
			repCtx, cancel := context.WithTimeout(ctx, r.timeout)
			defer cancel()
			status, b, err := n.backend.Do(repCtx, "POST", "/reviews", replicaBody)
			mu.Lock()
			defer mu.Unlock()
			// Strike accounting matches the read path: transport failures
			// (unless we gave up) and 5xx strike; every deliberate status —
			// including the 4xx rejections below — proves the node alive.
			switch {
			case err != nil:
				if repCtx.Err() == nil && ctx.Err() == nil {
					n.recordFailure(r.ejectFor)
				}
				failed[i] = err.Error()
			case status == http.StatusOK, status == http.StatusConflict:
				// 409 means the node already journaled this review (a
				// retried write after a partial failure); that is the
				// desired end state, not an error.
				n.recordSuccess()
				res.Replicated++
				if status == http.StatusOK {
					res.fresh++
				}
			default:
				if status >= 500 {
					n.recordFailure(r.ejectFor)
				} else {
					n.recordSuccess()
				}
				failed[i] = replyError(shardReply{status: status, body: b})
			}
		}(i, n)
	}
	wg.Wait()
	r.foldNodeFailures(v, failed, res)
	return failed
}

// behindFleet is the replication failure reported for a dirty node.
const behindFleet = "behind the fleet; receives this write through repair"

// foldNodeFailures renders node-keyed replication failures into the
// result's two error views: FailedNodes (exact per-replica attribution,
// in node order) and ShardErrors (one message per shard range — the raw
// message when a single replica of the range failed, so single-replica
// fleets report byte-identically to the pre-replication router, else a
// joined message naming each replica).
func (r *Router) foldNodeFailures(v *fleetView, failed map[int]string, res *ReviewResult) {
	if len(failed) == 0 {
		return
	}
	perShard := map[int][]string{}
	for i, n := range v.nodes {
		msg, ok := failed[i]
		if !ok {
			continue
		}
		res.FailedNodes = append(res.FailedNodes, NodeError{
			Shard: n.shard, Replica: n.idx, Backend: n.backend.Name(), Error: msg,
		})
		part := msg
		if len(v.reps[n.shard]) > 1 {
			part = fmt.Sprintf("replica %d (%s): %s", n.idx, n.backend.Name(), msg)
		}
		perShard[n.shard] = append(perShard[n.shard], part)
	}
	res.ShardErrors = make(map[int]string, len(perShard))
	for s, parts := range perShard {
		res.ShardErrors[s] = strings.Join(parts, "; ")
	}
}

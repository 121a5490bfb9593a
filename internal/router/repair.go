package router

// The router's integration with the anti-entropy control plane
// (internal/fleet). A node that misses a routed write — its replica POST
// failed, or its owner-hop call errored and may have landed — enters the
// dirty set, and from then on receives nothing but its backfill: the
// write path skips it (write.go) and, while still holding the write
// mutex, runs a repair pass that elects its reference from the clean
// nodes and streams each dirty node its whole missed suffix in fleet
// order. So every node's journal stays a prefix of the fleet order — the
// property the repair pass proves, and the one plan generations assume.
// Nodes that are fully down stay dirty and the write path retries on
// every later write; RunRepair offers the same pass to operators
// (POST /repair, opinedbd -repair-interval).

import (
	"context"
	"errors"
	"strconv"

	"repro/internal/fleet"
)

// fleetBackends adapts one view of the router's fleet — every replica
// of every shard, in flat node order — to the control plane's Backend
// interface (structurally identical). Repair is a per-node concern:
// each node journals the fleet write order independently, so each
// converges (or lags) independently of its set-mates.
func fleetBackends(v *fleetView) []fleet.Backend {
	out := make([]fleet.Backend, len(v.nodes))
	for i, n := range v.nodes {
		out[i] = n.backend
	}
	return out
}

// markDirtyLocked records nodes (flat indexes) that missed a write. A
// volatile fleet keeps no dirty set: it has no journal to heal from, and
// a dirty node would receive no writes. Caller holds writeMu.
func (r *Router) markDirtyLocked(failed map[int]string) {
	if r.volatile {
		return
	}
	for i := range failed {
		r.dirty[i] = true
	}
	r.metrics.dirtyShards.Set(float64(len(r.dirty)))
}

// joinBackendsLocked lists the nodes a join may elect its reference
// from, with each one's flat node index: the clean nodes, or every node
// when all are dirty — the rule fleet.RepairOptions.Dirty states for a
// repair pass. Caller holds writeMu.
func (r *Router) joinBackendsLocked(v *fleetView) ([]fleet.Backend, []int) {
	allDirty := len(r.dirty) == len(v.nodes)
	var bs []fleet.Backend
	var flat []int
	for i, n := range v.nodes {
		if allDirty || !r.dirty[i] {
			bs = append(bs, n.backend)
			flat = append(flat, i)
		}
	}
	return bs, flat
}

// healLocked is the write path's pass, run while any node is dirty and
// bounded by the router's timeout so a hung dirty node cannot stall every
// later write. It returns the node indexes that converged. Caller holds
// writeMu.
func (r *Router) healLocked(ctx context.Context) []int {
	if len(r.dirty) == 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	_, healed, _ := r.repairLocked(ctx)
	return healed
}

// repairLocked runs one repair pass over the current view, electing the
// reference from the clean nodes, and folds its outcome into the router:
// converged nodes leave the dirty set (healed lists those that were in
// it), the repair metrics record the pass, and a pass that backfilled
// anything retires the interpretation memo. A volatile fleet
// (fleet.ErrNoJournalSurface) clears the dirty set for good. Caller holds
// writeMu.
func (r *Router) repairLocked(ctx context.Context) (report *fleet.RepairReport, healed []int, err error) {
	v := r.view.Load()
	ctx, span := r.tracer.Start(ctx, "repair.pass")
	span.SetAttr("nodes", strconv.Itoa(len(v.nodes)))
	span.SetAttr("dirty", strconv.Itoa(len(r.dirty)))
	defer span.End()
	report, err = fleet.Repair(ctx, fleetBackends(v), fleet.RepairOptions{Dirty: r.dirty})
	if errors.Is(err, fleet.ErrNoJournalSurface) {
		r.volatile = true
		r.dirty = map[int]bool{}
		r.metrics.dirtyShards.Set(0)
	}
	if err != nil {
		span.SetError(err.Error())
		return nil, nil, err
	}
	r.metrics.observeRepair(report, v.nodes)
	backfilled := 0
	for _, n := range report.Nodes {
		backfilled += n.Backfilled
		if r.dirty[n.Index] && report.Converged(n.Index) {
			delete(r.dirty, n.Index)
			healed = append(healed, n.Index)
		}
	}
	r.metrics.dirtyShards.Set(float64(len(r.dirty)))
	span.SetAttr("backfilled", strconv.Itoa(backfilled))
	span.SetAttr("healed", strconv.Itoa(len(healed)))
	if backfilled > 0 {
		// Backfills changed replicated state behind the memo cache.
		r.invalidateInterpret()
	}
	return report, healed, nil
}

// RunRepair runs one fleet-wide anti-entropy pass, serialized against
// routed writes. Every node is probed; every laggard (dirty or not) is
// repaired. This is the operator surface behind POST /repair and the
// opinedbd repair interval.
func (r *Router) RunRepair(ctx context.Context) (*fleet.RepairReport, error) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	report, _, err := r.repairLocked(ctx)
	return report, err
}

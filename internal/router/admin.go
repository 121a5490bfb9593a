package router

// Replica-set administration: the fleet topology behind the router is a
// fleetView — per-shard replica sets plus the same set flattened in
// shard-major node order — held in an atomic pointer. Read paths load
// the view once per operation and never take a lock; AdmitReplica and
// RetireReplica build a fresh view and swap it in under the write
// mutex, so topology changes serialize with writes (and with each
// other) while reads continue uninterrupted.
//
// Admission is two-phase so the fleet never pauses writes for a bulk
// transfer: phase 1 streams the journal suffix to the joiner WITHOUT
// the write mutex (writes keep landing; the joiner chases the moving
// position), then phase 2 takes the mutex — freezing the fleet journal
// position — syncs the small delta that landed during phase 1, and
// verifies byte identity (the joiner's journal must hash as exactly
// the fleet's record sequence at the fleet's position) before the
// joiner enters the pick. Writes queue on the mutex for the delta
// sync only, never for the bulk transfer, and no read is ever served
// by a node that has not proven identity.

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
)

// fleetView is one immutable snapshot of the fleet topology. reps
// mirrors Router.shards with per-replica balancing state; nodes is the
// same set flattened fleet-wide in shard-major order (the indexing
// writes, repair and the dirty set use — with single-replica shards a
// node index IS the shard index).
type fleetView struct {
	reps  [][]*replica
	nodes []*replica
}

// nodeIndex returns rep's flat node index under this view, or -1 when
// the replica is not part of it (retired since the caller found it).
func (v *fleetView) nodeIndex(rep *replica) int {
	for i, n := range v.nodes {
		if n == rep {
			return i
		}
	}
	return -1
}

// withReplica returns a new view with nr appended to shard's replica
// set; without returns a new view with target removed. Both rebuild
// the flat node list — replica pointers are shared, so balancing state
// (in-flight counts, strikes) carries across the swap.
func (v *fleetView) withReplica(shard int, nr *replica) *fleetView {
	return v.rebuild(func(s int, set []*replica) []*replica {
		if s != shard {
			return set
		}
		return append(append([]*replica(nil), set...), nr)
	})
}

func (v *fleetView) without(target *replica) *fleetView {
	return v.rebuild(func(s int, set []*replica) []*replica {
		out := make([]*replica, 0, len(set))
		for _, rep := range set {
			if rep != target {
				out = append(out, rep)
			}
		}
		return out
	})
}

func (v *fleetView) rebuild(mod func(shard int, set []*replica) []*replica) *fleetView {
	nv := &fleetView{reps: make([][]*replica, len(v.reps))}
	for s, set := range v.reps {
		nv.reps[s] = mod(s, set)
		nv.nodes = append(nv.nodes, nv.reps[s]...)
	}
	return nv
}

// remapDirtyLocked rewrites the dirty set's flat node indexes from the
// old view's numbering to the new one's, dropping entries for retired
// nodes. Caller holds writeMu.
func (r *Router) remapDirtyLocked(old, next *fleetView) {
	if len(r.dirty) == 0 {
		return
	}
	nd := make(map[int]bool, len(r.dirty))
	for i := range r.dirty {
		if i < 0 || i >= len(old.nodes) {
			continue
		}
		if j := next.nodeIndex(old.nodes[i]); j >= 0 {
			nd[j] = true
		}
	}
	r.dirty = nd
	r.metrics.dirtyShards.Set(float64(len(r.dirty)))
}

// AdmitReport describes one replica admission.
type AdmitReport struct {
	// Shard is the range joined; Replica the in-set index assigned to
	// the joiner; Backend its display name.
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	Backend string `json:"backend"`
	// Presync is the bulk catch-up run before the write mutex was taken
	// (writes kept flowing); Final the delta sync and byte-identity
	// verification run under it.
	Presync *fleet.JoinReport `json:"presync"`
	Final   *fleet.JoinReport `json:"final"`
	// Nodes is the fleet's total backend count after the join.
	Nodes int `json:"nodes"`
}

// AdmitReplica brings a fresh node into shard's replica set: verify it
// serves this build's shard range (when it reports an identity), catch
// it up to the fleet journal position via fleet.JoinReplica, and swap
// it into the pick. See the file comment for the two-phase protocol.
func (r *Router) AdmitReplica(ctx context.Context, shard int, b Backend) (*AdmitReport, error) {
	if shard < 0 || shard >= len(r.shards) {
		return nil, fmt.Errorf("router: admit: shard %d out of range [0,%d)", shard, len(r.shards))
	}
	if b == nil {
		return nil, fmt.Errorf("router: admit: nil backend")
	}
	if err := r.verifyJoinerIdentity(ctx, shard, b); err != nil {
		return nil, err
	}

	// Phase 1: bulk catch-up with writes still flowing. The fleet
	// position may advance while this streams; phase 2 closes the gap.
	// Each phase gets its own span — the presync/final duration split is
	// exactly the "how long did writes queue" question an operator asks
	// about a join.
	preCtx, preSpan := r.tracer.Start(ctx, "admin.presync")
	preSpan.SetAttr("shard", strconv.Itoa(shard))
	preSpan.SetAttr("backend", b.Name())
	r.writeMu.Lock()
	refs, flat := r.joinBackendsLocked(r.view.Load())
	r.writeMu.Unlock()
	pre, err := fleet.JoinReplica(preCtx, refs, b)
	if err != nil {
		preSpan.SetError(err.Error())
		preSpan.End()
		return nil, fmt.Errorf("router: admit shard %d (%s): presync: %w", shard, b.Name(), err)
	}
	pre.Reference = flat[pre.Reference]
	preSpan.SetAttr("backfilled", strconv.Itoa(pre.Backfilled))
	preSpan.End()

	// Phase 2: freeze the fleet journal position, sync the delta, prove
	// byte identity, then enter the pick. Writes queue on the mutex for
	// this delta only.
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	v := r.view.Load()
	finCtx, finSpan := r.tracer.Start(ctx, "admin.final")
	finSpan.SetAttr("shard", strconv.Itoa(shard))
	finSpan.SetAttr("backend", b.Name())
	refs, flat = r.joinBackendsLocked(v)
	fin, err := fleet.JoinReplica(finCtx, refs, b)
	if err != nil {
		finSpan.SetError(err.Error())
		finSpan.End()
		return nil, fmt.Errorf("router: admit shard %d (%s): final sync: %w", shard, b.Name(), err)
	}
	fin.Reference = flat[fin.Reference]
	finSpan.SetAttr("backfilled", strconv.Itoa(fin.Backfilled))
	finSpan.SetAttr("identical", strconv.FormatBool(fin.Identical))
	finSpan.End()
	if !fin.Identical {
		return nil, fmt.Errorf("router: admit shard %d (%s): joiner stopped at seq %d of %d without proving identity — not admitted",
			shard, b.Name(), fin.After, fin.ReferenceSeq)
	}
	idx := 0
	for _, rep := range v.reps[shard] {
		if rep.idx >= idx {
			idx = rep.idx + 1
		}
	}
	nr := r.newReplica(shard, idx, b)
	nv := v.withReplica(shard, nr)
	r.remapDirtyLocked(v, nv)
	r.view.Store(nv)
	return &AdmitReport{
		Shard: shard, Replica: idx, Backend: b.Name(),
		Presync: pre, Final: fin, Nodes: len(nv.nodes),
	}, nil
}

// verifyJoinerIdentity probes the joiner's /healthz and, when the node
// reports a snapshot shard identity, requires it to serve exactly this
// shard range of this build — admitting shard 2's snapshot into shard
// 0's replica set would break byte identity silently. Nodes without an
// identity (in-process builds) are trusted to the journal proof.
func (r *Router) verifyJoinerIdentity(ctx context.Context, shard int, b Backend) error {
	probeCtx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	status, body, err := b.Do(probeCtx, "GET", "/healthz", nil)
	if err != nil {
		return fmt.Errorf("router: admit shard %d (%s): joiner unreachable: %w", shard, b.Name(), err)
	}
	if status != 200 {
		return fmt.Errorf("router: admit shard %d (%s): joiner /healthz answered %d", shard, b.Name(), status)
	}
	var h server.HealthResponse
	if err := json.Unmarshal(body, &h); err != nil || h.Snapshot == nil || h.Snapshot.Shard == nil {
		return nil // no identity to check; the journal proof still gates admission
	}
	id := h.Snapshot.Shard
	if id.Index != shard {
		return fmt.Errorf("router: admit shard %d (%s): joiner serves shard %d", shard, b.Name(), id.Index)
	}
	if id.Count != len(r.shards) {
		return fmt.Errorf("router: admit shard %d (%s): joiner belongs to a %d-shard build, this fleet has %d",
			shard, b.Name(), id.Count, len(r.shards))
	}
	return nil
}

// RetireReport describes one replica retirement.
type RetireReport struct {
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	Backend string `json:"backend"`
	// Drained is true when every in-flight leg against the retired node
	// finished before the drain deadline; false means the node should
	// stay up briefly before decommissioning.
	Drained bool `json:"drained"`
	// Nodes is the fleet's total backend count after the retirement.
	Nodes int `json:"nodes"`
}

// retireDrainTimeout bounds the post-swap wait for in-flight legs.
const retireDrainTimeout = 5 * time.Second

// RetireReplica removes a replica from shard's set: swap in a view
// without it (new picks never see it), then drain its in-flight legs.
// The last replica of a range cannot be retired — a range must always
// have a server.
func (r *Router) RetireReplica(ctx context.Context, shard, idx int) (*RetireReport, error) {
	r.writeMu.Lock()
	if shard < 0 || shard >= len(r.shards) {
		r.writeMu.Unlock()
		return nil, fmt.Errorf("router: retire: shard %d out of range [0,%d)", shard, len(r.shards))
	}
	v := r.view.Load()
	var target *replica
	for _, rep := range v.reps[shard] {
		if rep.idx == idx {
			target = rep
			break
		}
	}
	if target == nil {
		r.writeMu.Unlock()
		return nil, fmt.Errorf("router: retire: shard %d has no replica %d", shard, idx)
	}
	if len(v.reps[shard]) == 1 {
		r.writeMu.Unlock()
		return nil, fmt.Errorf("router: retire: replica %d is shard %d's last — a range cannot lose its only server", idx, shard)
	}
	nv := v.without(target)
	r.remapDirtyLocked(v, nv)
	r.view.Store(nv)
	r.writeMu.Unlock()

	// Drain outside the mutex: legs picked from the old view finish
	// against the retired backend; new picks already cannot see it.
	report := &RetireReport{Shard: shard, Replica: idx, Backend: target.backend.Name(), Nodes: len(nv.nodes)}
	deadline := time.Now().Add(retireDrainTimeout)
	for target.inflight.Load() > 0 {
		if ctx.Err() != nil || time.Now().After(deadline) {
			return report, nil
		}
		time.Sleep(time.Millisecond)
	}
	report.Drained = true
	return report, nil
}

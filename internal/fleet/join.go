package fleet

// Live replica join: bring a fresh node up to the fleet's exact journal
// position so a router can admit it to a range's replica set with the
// byte-identity guarantee intact. The node starts from the range's
// digest-verified snapshot (snapshot.LoadVerifiedShard — the same trust
// chain every fleet node boots through) and an empty or
// prefix-contained journal; the join applies repair's convergence rule
// (catchUp in repair.go: prefix proof, suffix stream through the
// ordinary replica-write path, hash check of where the joiner ended).
//
// Admission adds checks of its own: the joiner must journal, must have
// applied everything it journaled, must not be ahead of the fleet, must
// not have rejected any record, and must end Identical — at the
// reference's position, with its hash.

import (
	"context"
	"fmt"
	"net/http"
)

// JoinReport is the outcome of one join pass.
type JoinReport struct {
	// Reference is the index in nodes of the node whose journal served
	// as the source (the longest; ties break to the lowest index);
	// ReferenceSeq its last sequence when the pass started.
	Reference    int    `json:"reference"`
	ReferenceSeq uint64 `json:"reference_seq"`
	// Before and After are the joiner's journal last-sequences around
	// the pass.
	Before uint64 `json:"before"`
	After  uint64 `json:"after"`
	// Backfilled counts records the joiner accepted; AlreadyPresent
	// counts records it answered 409 for.
	Backfilled     int `json:"backfilled"`
	AlreadyPresent int `json:"already_present,omitempty"`
	// Identical is true when the joiner ended the pass at ReferenceSeq
	// with a prefix hash equal to the reference's — its journal holds
	// byte-for-byte the fleet's record sequence — and has applied
	// everything it journaled. Callers admitting the joiner to a pick
	// must require it. (It can be false without error when writes kept
	// landing on the fleet during the pass; a second pass under the
	// fleet's write mutex closes the gap.)
	Identical bool `json:"identical"`
}

// JoinReplica catches joiner up to the fleet's journal position. nodes
// are the fleet nodes the reference may be elected from: every replica
// of every range that is level with the fleet (a router passes its clean
// nodes, the ones RepairOptions.Dirty would leave eligible). joiner is
// the fresh node, NOT part of nodes. Returns ErrNoJournalSurface when the
// fleet has no journal to ship — a volatile fleet cannot prove a
// joiner identical, so it cannot take one.
func JoinReplica(ctx context.Context, nodes []Backend, joiner Backend) (*JoinReport, error) {
	probes, ref, err := elect(ctx, nodes, nil, "join")
	if err != nil {
		return nil, err
	}
	report := &JoinReport{Reference: ref, ReferenceSeq: probes[ref].st.LastSeq}

	// The joiner must expose a journal — it will carry the fleet order
	// from here on — and must have applied everything it journaled
	// (an append-without-apply gap needs a restart, not a backfill).
	jst, jhttp, err := journalStatus(ctx, joiner, 0)
	if err != nil {
		if jhttp == http.StatusNotFound {
			return nil, fmt.Errorf("fleet: join: joiner %s has no journal surface; a joiner must journal to hold the fleet order", joiner.Name())
		}
		return nil, fmt.Errorf("fleet: join: joiner %s journal status: %v", joiner.Name(), err)
	}
	if jst.LastAppliedSeq < jst.LastSeq {
		return nil, fmt.Errorf("fleet: join: joiner %s applied state (seq %d) is behind its journal (seq %d); restart it to replay first",
			joiner.Name(), jst.LastAppliedSeq, jst.LastSeq)
	}
	report.Before = jst.LastSeq
	report.After = jst.LastSeq
	if jst.LastSeq > report.ReferenceSeq {
		return nil, fmt.Errorf("fleet: join: joiner %s journal (seq %d) is ahead of the fleet (seq %d); it belongs to another fleet",
			joiner.Name(), jst.LastSeq, report.ReferenceSeq)
	}

	nr := NodeRepair{}
	end, err := catchUp(ctx, nodes[ref], joiner, jst, &nr)
	report.Backfilled = nr.Backfilled
	report.AlreadyPresent = nr.AlreadyPresent
	if err != nil {
		return nil, fmt.Errorf("fleet: join: joiner %s: %v", joiner.Name(), err)
	}
	if nr.Failed > 0 {
		return nil, fmt.Errorf("fleet: join: joiner %s rejected %d of the fleet's records; it can never be byte-identical",
			joiner.Name(), nr.Failed)
	}
	report.After = end.LastSeq
	// catchUp proved the joiner a prefix of the reference; at the
	// reference's position, fully applied, that prefix is the whole
	// sequence. Short of it, writes kept landing during the pass and a
	// second pass under the fleet's write mutex finishes the job.
	report.Identical = end.LastSeq >= report.ReferenceSeq && end.LastAppliedSeq >= end.LastSeq
	return report, nil
}

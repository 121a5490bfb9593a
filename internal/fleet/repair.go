package fleet

// Anti-entropy write-repair. Every node of a routed fleet journals every
// replicated write in one fleet-wide order, and a node's journal is
// always a prefix of that order: the router sends a node that missed a
// write nothing more until repair has backfilled it (internal/router,
// write.go). So the one convergence rule, shared by Repair and
// JoinReplica, is: prove the node's journal is a prefix of the
// reference's with the hash chain, stream the missing suffix through the
// ordinary replica-write path in fleet order, and check the hash of where
// the node ended. The laggard journals and applies exactly the deltas it
// missed, in fleet order, converging it to byte-identical interpretation
// state.
//
// A node whose journal is not a prefix of the reference's holds an order
// no other node has; no stream can make it byte-identical again. It is
// refused with an error telling the operator to wipe it and rejoin from
// the snapshot, and it is never streamed into the reference.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/server"
)

// ErrNoJournalSurface reports a fleet whose nodes all answered 404 for
// /journal/status — volatile (unjournaled) ingestion. Such a fleet has
// no anti-entropy substrate: there is no fleet-ordered log to diff or
// backfill from, so callers should stop scheduling repair passes
// (the router stops keeping a dirty set on this error).
var ErrNoJournalSurface = errors.New("fleet: nodes have no journal surface (volatile ingestion)")

// pageSize bounds one /journal/records fetch.
const pageSize = 256

// RepairOptions configure a Repair pass.
type RepairOptions struct {
	// Dirty holds the node indexes the caller knows missed a write (the
	// router's dirty set). A dirty node receives nothing but its backfill,
	// so a clean node is never behind a dirty one: the reference is
	// elected from the clean nodes, and a dirty node that is not a prefix
	// of it is refused. Only when every node is dirty is none known level
	// with the fleet, and then all are candidates.
	Dirty map[int]bool
}

// NodeRepair reports one node's outcome in a repair pass.
type NodeRepair struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	// Before and After are the node's journal last-sequences around the
	// pass.
	Before uint64 `json:"before"`
	After  uint64 `json:"after"`
	// Backfilled counts records the node accepted; AlreadyPresent counts
	// records it answered 409 for; Failed counts records it rejected (a
	// rejection ends the node's stream, so its journal stays a prefix).
	Backfilled     int `json:"backfilled"`
	AlreadyPresent int `json:"already_present,omitempty"`
	Failed         int `json:"failed,omitempty"`
	// InSync is true when the node needed nothing.
	InSync bool `json:"in_sync,omitempty"`
	// Err is the terminal failure that stopped this node's repair, "" on
	// success.
	Err string `json:"error,omitempty"`
}

// RepairReport is the outcome of one anti-entropy pass.
type RepairReport struct {
	// Reference is the node whose journal served as the backfill source
	// (the longest clean journal; ties break to the lowest index).
	Reference    int    `json:"reference"`
	ReferenceSeq uint64 `json:"reference_seq"`
	// InSync is true when every probed node already matched the reference.
	InSync bool `json:"in_sync"`
	// Nodes reports per-node outcomes, ordered by node index.
	Nodes []NodeRepair `json:"nodes"`
}

// Converged reports whether node idx ended the pass in a known-good
// state: in sync already, or repaired without failures.
func (r *RepairReport) Converged(idx int) bool {
	for _, n := range r.Nodes {
		if n.Index == idx {
			return n.Err == "" && n.Failed == 0
		}
	}
	return false
}

// Repair runs one anti-entropy pass over the fleet's nodes. Laggards are
// driven toward the reference; a node that is not a prefix of it, or is
// ahead of it, is reported with an Err and left as it is. The caller is responsible
// for serializing the pass against routed writes (the router runs it
// under its write mutex) — concurrent writes would interleave with the
// backfill and the healed order would no longer be the fleet order.
func Repair(ctx context.Context, nodes []Backend, opts RepairOptions) (*RepairReport, error) {
	probes, ref, err := elect(ctx, nodes, opts.Dirty, "repair")
	if err != nil {
		return nil, err
	}
	refSt := probes[ref].st
	report := &RepairReport{Reference: ref, ReferenceSeq: refSt.LastSeq, InSync: true}

	for i, b := range nodes {
		p := probes[i]
		nr := NodeRepair{Index: i, Name: b.Name(), Before: p.st.LastSeq, After: p.st.LastSeq}
		switch {
		case p.err != nil:
			nr.Err = p.err.Error()
			report.InSync = false
		case p.st.LastAppliedSeq < p.st.LastSeq:
			// The append-without-apply window: the record is durable in the
			// node's journal (so journal diffing sees nothing to backfill)
			// but its serving state is behind. A backfill POST cannot heal
			// this without duplicating the journaled record; a restart
			// replays the journal and converges. Never report such a node
			// in sync — drift must not hide.
			nr.Err = fmt.Sprintf("applied state (seq %d) is behind the journal (seq %d): an append succeeded but its apply failed; restart the node to replay",
				p.st.LastAppliedSeq, p.st.LastSeq)
			report.InSync = false
		case i == ref, p.st.LastSeq == refSt.LastSeq && p.st.PrefixHash == refSt.PrefixHash:
			nr.InSync = true
		case p.st.LastSeq > refSt.LastSeq:
			// Only a dirty node can be longer than the clean reference, and
			// the router sends a dirty node no write: what it holds past the
			// reference reached it some other way.
			nr.Err = fmt.Sprintf("journal (seq %d) is ahead of the fleet (seq %d): it holds records no clean node has; wipe the node and rejoin from the snapshot",
				p.st.LastSeq, refSt.LastSeq)
			report.InSync = false
		default:
			report.InSync = false
			end, err := catchUp(ctx, nodes[ref], b, p.st, &nr)
			nr.After = end.LastSeq
			if err != nil {
				nr.Err = err.Error()
			}
		}
		report.Nodes = append(report.Nodes, nr)
	}
	return report, nil
}

// probe is one node's journal-status answer.
type probe struct {
	st   server.JournalStatusResponse
	http int
	err  error
}

// elect probes every node concurrently — a pass often runs under the
// router's write mutex, so it should cost the slowest probe, not the
// sum — and picks the reference: the longest journal of a node not in
// dirty (of any node when every node is dirty), ties to the lowest
// index. ErrNoJournalSurface when every node answered 404; other errors
// name op.
func elect(ctx context.Context, nodes []Backend, dirty map[int]bool, op string) ([]probe, int, error) {
	if len(nodes) == 0 {
		return nil, -1, fmt.Errorf("fleet: %s over zero nodes", op)
	}
	probes := make([]probe, len(nodes))
	var wg sync.WaitGroup
	for i, b := range nodes {
		wg.Add(1)
		go func(i int, b Backend) {
			defer wg.Done()
			probes[i].st, probes[i].http, probes[i].err = journalStatus(ctx, b, 0)
		}(i, b)
	}
	wg.Wait()
	allDirty := true
	for i := range nodes {
		allDirty = allDirty && dirty[i]
	}
	noJournal, ref := 0, -1
	var firstErr error
	for i, p := range probes {
		if p.err != nil {
			if p.http == http.StatusNotFound {
				noJournal++
			}
			if firstErr == nil {
				firstErr = p.err
			}
			continue
		}
		if dirty[i] && !allDirty {
			continue
		}
		if ref < 0 || p.st.LastSeq > probes[ref].st.LastSeq {
			ref = i
		}
	}
	if noJournal == len(nodes) {
		return nil, -1, ErrNoJournalSurface
	}
	if ref < 0 {
		return nil, -1, fmt.Errorf("fleet: %s: no clean node answered /journal/status (first error: %v)", op, firstErr)
	}
	return probes, ref, nil
}

// catchUp applies the convergence rule to node, whose journal status is
// st: prove st is a prefix of ref's journal, stream ref's records after
// it, and prove the journal the node ended with is still a prefix of
// ref's. It returns the node's final status (st when the pass stopped
// before streaming) and accumulates record counts into nr.
func catchUp(ctx context.Context, ref, node Backend, st server.JournalStatusResponse, nr *NodeRepair) (server.JournalStatusResponse, error) {
	if err := provePrefix(ctx, ref, st); err != nil {
		return st, err
	}
	if err := streamInto(ctx, ref, node, st.LastSeq+1, nr); err != nil {
		return st, err
	}
	end, _, err := journalStatus(ctx, node, 0)
	if err != nil {
		return st, fmt.Errorf("status after backfill: %v", err)
	}
	if err := provePrefix(ctx, ref, end); err != nil {
		return end, fmt.Errorf("after backfill to seq %d: %v", end.LastSeq, err)
	}
	return end, nil
}

// provePrefix checks that a journal with status st hashes like ref's
// first st.LastSeq records.
func provePrefix(ctx context.Context, ref Backend, st server.JournalStatusResponse) error {
	if st.LastSeq == 0 {
		return nil
	}
	refAt, _, err := journalStatus(ctx, ref, st.LastSeq)
	if err != nil {
		return fmt.Errorf("reference prefix hash at seq %d: %v", st.LastSeq, err)
	}
	if refAt.PrefixHash != st.PrefixHash {
		return fmt.Errorf("journal diverges from the fleet at or before seq %d; wipe the node and rejoin from the snapshot", st.LastSeq)
	}
	return nil
}

// streamInto pages src's journal records from seq `from` and offers each
// to dst through the replica-write path, accumulating counts into nr. A
// deliberate rejection is counted and ends the stream: dst accepting a
// later record would leave a gap in its journal.
func streamInto(ctx context.Context, src, dst Backend, from uint64, nr *NodeRepair) error {
	for {
		page, err := journalRecords(ctx, src, from, pageSize)
		if err != nil {
			return fmt.Errorf("read source journal: %v", err)
		}
		for _, rec := range page.Records {
			body, err := json.Marshal(server.ReviewRequest{
				ID: rec.ID, EntityID: rec.EntityID, Reviewer: rec.Reviewer,
				Day: rec.Day, Text: rec.Text, Replica: true,
			})
			if err != nil {
				return fmt.Errorf("encode record seq %d: %v", rec.Seq, err)
			}
			status, _, err := dst.Do(ctx, "POST", "/reviews", body)
			switch {
			case err != nil:
				return fmt.Errorf("backfill seq %d: %v", rec.Seq, err)
			case status == http.StatusOK:
				nr.Backfilled++
			case status == http.StatusConflict:
				nr.AlreadyPresent++
			default:
				nr.Failed++
				return nil
			}
			from = rec.Seq + 1
		}
		if !page.More || len(page.Records) == 0 {
			return nil
		}
	}
}

package server

// Group commit: the concurrent write pipeline behind POST /reviews.
//
// Handlers run the expensive linguistic half of ingestion concurrently
// (core.PrepareReview reads only the frozen model) and stage the
// prepared delta on a bounded commit queue. The first writer to stage
// while no commit is running becomes the LEADER: it drains the whole
// queue as one batch, journals the batch with a single shared fsync
// (journal.Journal.AppendBatch), extends the prefix-hash chain, folds
// the deltas into the serving state in sequence order under the write
// lock, and wakes every waiter with its outcome. Durability is never
// weakened — a 200 means the review is fsynced — but N writers arriving
// together pay one fsync and one lock acquisition instead of N.
//
// There is no background committer goroutine: leadership is handed from
// batch to batch by closing the next staged waiter's lead channel, so
// the pipeline is quiescent whenever no write is in flight and the
// server needs no Close/lifecycle management.
//
// A full queue refuses the write with 503 + Retry-After instead of
// growing the backlog without bound (IngestOptions.MaxQueueDepth).

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// DefaultCommitQueueDepth bounds the staged commit queue when
// IngestOptions.MaxQueueDepth is unset. 256 staged writes is far beyond
// the fsync batching sweet spot; past it the server is not keeping up
// and shedding load beats queueing it.
const DefaultCommitQueueDepth = 256

// commitRequest is one staged write awaiting its group commit. The
// handler fills prepared/replica, the leader fills the outcome, and the
// closed done channel publishes it (channel close is the happens-before
// edge that makes the leader's writes visible to the waiter).
type commitRequest struct {
	prepared *core.PreparedReview
	replica  bool
	staged   time.Time

	// Outcome, written by the leader before close(done).
	status int            // HTTP status; 200 means resp is valid
	errMsg string         // error body for non-200
	resp   ReviewResponse // success body
	// batchSize and leaderTrace attribute the commit for tracing: how
	// many writes shared the fsync, and the trace id of the request that
	// led the batch — a follower's queue-wait span points at the leader
	// whose fsync it rode.
	batchSize   int
	leaderTrace string

	done chan struct{} // closed when the outcome is ready
	lead chan struct{} // closed to hand this waiter leadership
}

// commitQueue is the staging area between concurrent handlers and the
// single in-flight group commit. leading is true while some goroutine
// is committing (or has been handed leadership and not yet drained).
type commitQueue struct {
	mu      sync.Mutex
	staged  []*commitRequest
	leading bool
	depth   int
}

// stage enqueues a request. ok is false when the queue is full; lead is
// true when the caller must run the next commit itself; n is the staged
// depth after the enqueue (for the queue-depth gauge).
func (q *commitQueue) stage(cr *commitRequest) (ok, lead bool, n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.staged) >= q.depth {
		return false, false, len(q.staged)
	}
	q.staged = append(q.staged, cr)
	if !q.leading {
		q.leading = true
		return true, true, len(q.staged)
	}
	return true, false, len(q.staged)
}

// handleReviewGrouped is the group-commit write path: prepare outside
// every lock, stage, commit (as leader or waiter), respond.
func (s *Server) handleReviewGrouped(w http.ResponseWriter, ctx context.Context, req ReviewRequest, rv core.ReviewData) {
	_, prepSpan := s.opts.Trace.Start(ctx, "commit.prepare")
	p, err := s.db.PrepareReview(rv)
	if err != nil {
		prepSpan.SetError(err.Error())
		prepSpan.End()
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	prepSpan.End()
	cr := &commitRequest{
		prepared: p,
		replica:  req.Replica,
		staged:   time.Now(),
		done:     make(chan struct{}),
		lead:     make(chan struct{}),
	}
	ok, lead, depth := s.cq.stage(cr)
	if !ok {
		s.metrics.backpressure.Inc()
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable,
			"write queue full (%d staged); retry shortly", s.cq.depth)
		return
	}
	s.metrics.queueDepth.Set(float64(depth))
	// commit.wait covers staging → published outcome: for the leader this
	// is the commit it ran itself; for a follower it is the queue wait
	// plus the leader's batch, attributed via batch_size + leader_trace.
	waitCtx, waitSpan := s.opts.Trace.Start(ctx, "commit.wait")
	s.awaitCommit(waitCtx, cr, lead)
	if waitSpan != nil {
		if lead {
			waitSpan.SetAttr("role", "leader")
		} else {
			waitSpan.SetAttr("role", "follower")
		}
		waitSpan.SetAttr("batch_size", strconv.Itoa(cr.batchSize))
		waitSpan.SetAttr("leader_trace", cr.leaderTrace)
	}
	waitSpan.End()
	s.metrics.commitWait.ObserveSince(cr.staged)
	if cr.status != http.StatusOK {
		WriteError(w, cr.status, "%s", cr.errMsg)
		return
	}
	WriteJSON(w, http.StatusOK, cr.resp)
}

// awaitCommit blocks until cr's outcome is published, leading exactly one
// commit if leadership lands on this goroutine. A goroutine leads at most
// once: cr is staged before leadership can reach it, so its own drain
// always includes cr and closes cr.done. (It must not loop on cr.lead —
// after its own commit both channels are closed, and re-entering
// leadCommit would run a second leader concurrently with the goroutine
// the handoff actually chose.)
func (s *Server) awaitCommit(ctx context.Context, cr *commitRequest, lead bool) {
	if !lead {
		select {
		case <-cr.done:
			return
		case <-cr.lead:
		}
	}
	s.leadCommit(ctx)
	<-cr.done
}

// leadCommit drains the staged queue, commits it as one batch, and
// hands leadership to the first writer that staged during the commit
// (if any). The handoff via close(lead) sequences batches: the next
// leader's validation reads happen after this batch's fold completes.
func (s *Server) leadCommit(ctx context.Context) {
	s.cq.mu.Lock()
	batch := s.cq.staged
	s.cq.staged = nil
	s.cq.mu.Unlock()
	s.metrics.queueDepth.Set(0)

	s.commitBatch(ctx, batch)

	s.cq.mu.Lock()
	var next *commitRequest
	if len(s.cq.staged) > 0 {
		next = s.cq.staged[0]
	} else {
		s.cq.leading = false
	}
	s.cq.mu.Unlock()
	if next != nil {
		close(next.lead)
	}
}

// commitBatch runs one group commit end-to-end: validate in staging
// order, journal every accepted delta with one shared fsync, extend the
// prefix-hash chain, fold in sequence order under the write lock, and
// publish each waiter's outcome. Validation and the journal append run
// outside the server lock — only this goroutine mutates the database
// (single leader at a time, batches sequenced by the leadership
// handoff), so its lock-free reads cannot race the fold.
func (s *Server) commitBatch(ctx context.Context, batch []*commitRequest) {
	leaderTrace := trace.ID(ctx)
	for _, cr := range batch {
		cr.batchSize = len(batch)
		cr.leaderTrace = leaderTrace
	}
	defer func() {
		for _, cr := range batch {
			close(cr.done)
		}
	}()
	s.metrics.commitBatch.Observe(float64(len(batch)))
	ing := s.opts.Ingest

	// Validate in staging order; pendingIDs catches duplicates within
	// the batch itself (HasReview only knows applied reviews).
	accepted := make([]*commitRequest, 0, len(batch))
	owned := make([]bool, 0, len(batch))
	pendingIDs := make(map[string]bool, len(batch))
	for _, cr := range batch {
		rv := cr.prepared.Review()
		if pendingIDs[rv.ID] || s.db.HasReview(rv.ID) {
			cr.status = http.StatusConflict
			cr.errMsg = fmt.Sprintf("review %q already ingested", rv.ID)
			continue
		}
		own := s.db.ServesEntity(rv.EntityID)
		if !own && !(cr.replica && ing.AcceptUnowned) {
			cr.status = http.StatusNotFound
			cr.errMsg = fmt.Sprintf("no entity %q served here", rv.EntityID)
			continue
		}
		pendingIDs[rv.ID] = true
		accepted = append(accepted, cr)
		owned = append(owned, own)
	}
	if len(accepted) == 0 {
		return
	}

	// Journal the accepted deltas: one AppendBatch, one fsync. The
	// per-record fallback exists for configurations that only wire
	// Append; a failure there fails the unjournaled remainder while the
	// already-journaled prefix still folds (it is durable and must be
	// served — replay would apply it anyway).
	var firstSeq uint64
	durable := false
	if ing.AppendBatch != nil {
		rvs := make([]core.ReviewData, len(accepted))
		for i, cr := range accepted {
			rvs[i] = cr.prepared.Review()
		}
		_, jSpan := s.opts.Trace.Start(ctx, "commit.journal")
		jSpan.SetAttr("batch_size", strconv.Itoa(len(accepted)))
		t0 := time.Now()
		seq, err := ing.AppendBatch(rvs)
		s.metrics.journalAppend.ObserveSince(t0)
		if err != nil {
			jSpan.SetError(err.Error())
			jSpan.End()
			for _, cr := range accepted {
				cr.status = http.StatusInternalServerError
				cr.errMsg = fmt.Sprintf("journal append: %v", err)
			}
			return
		}
		jSpan.End()
		firstSeq, durable = seq, true
	} else if ing.Append != nil {
		_, jSpan := s.opts.Trace.Start(ctx, "commit.journal")
		jSpan.SetAttr("batch_size", strconv.Itoa(len(accepted)))
		t0 := time.Now()
		journaled := accepted[:0]
		for i, cr := range accepted {
			seq, err := ing.Append(cr.prepared.Review())
			if err != nil {
				jSpan.SetError(err.Error())
				for _, c := range accepted[i:] {
					c.status = http.StatusInternalServerError
					c.errMsg = fmt.Sprintf("journal append: %v", err)
				}
				break
			}
			if i == 0 {
				firstSeq = seq
			}
			journaled = append(journaled, cr)
		}
		s.metrics.journalAppend.ObserveSince(t0)
		jSpan.End()
		durable = ing.AppendDurable
		accepted, owned = journaled, owned[:len(journaled)]
		if len(accepted) == 0 {
			return
		}
	}

	// The chain mirrors the journal, not the applied state, so it
	// advances before the fold. PrefixHashes locks internally, so
	// concurrent /journal/status probes stay consistent.
	if firstSeq > 0 {
		for i, cr := range accepted {
			s.extendPrefixChain(firstSeq+uint64(i), cr.prepared.Review(), leaderTrace)
		}
	}

	// Fold in sequence order under the write lock. A fold error cannot
	// un-journal the delta — the next load replays it — so the failure
	// is surfaced (500) and the rest of the batch still folds; memoized
	// fragments are invalidated either way.
	_, applySpan := s.opts.Trace.Start(ctx, "commit.apply")
	applySpan.SetAttr("batch_size", strconv.Itoa(len(accepted)))
	defer applySpan.End()
	s.mu.Lock()
	for i, cr := range accepted {
		var seq uint64
		if firstSeq > 0 {
			seq = firstSeq + uint64(i)
		}
		rv := cr.prepared.Review()
		before := s.db.ExtractionCount()
		t0 := time.Now()
		err := s.db.ApplyPrepared(cr.prepared)
		s.metrics.apply.ObserveSince(t0)
		if err != nil {
			cr.status = http.StatusInternalServerError
			cr.errMsg = fmt.Sprintf("apply (journaled at seq %d): %v", seq, err)
			continue
		}
		if seq > 0 {
			s.appliedSeq = seq
			s.metrics.appliedSeq.Set(float64(seq))
		}
		cr.status = http.StatusOK
		cr.resp = ReviewResponse{
			ReviewID:    rv.ID,
			EntityID:    rv.EntityID,
			Owned:       owned[i],
			Extractions: s.db.ExtractionCount() - before,
			Seq:         seq,
			Durable:     durable,
		}
	}
	if s.topkMemo != nil {
		s.topkMemo.invalidate()
	}
	s.mu.Unlock()
}

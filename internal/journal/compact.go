package journal

// Snapshot integration: the journal lives in a directory next to the
// snapshot artifact it extends (Dir), a serving process loads the pair
// with LoadWithJournal (snapshot → replay → serve), and Compact folds the
// journal back into a fresh snapshot so the delta log stays short and a
// future cold start pays one load instead of a long replay.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// Dir returns the canonical journal directory for a snapshot artifact:
// "<snapshot>.journal" next to the file, so the pair travels together.
func Dir(snapshotPath string) string { return snapshotPath + ".journal" }

// ApplyStats extends ReplayStats with what application did to the
// database.
type ApplyStats struct {
	ReplayStats
	// Applied counts records applied to the database; Skipped counts
	// records whose review id was already ingested — the signature of a
	// crash between a compaction's snapshot rename and its journal
	// truncation, which idempotent replay absorbs.
	Applied int
	Skipped int
}

// ApplyAll replays the journal directory into a loaded database, in
// journal order, with the result of a serial core.ApplyReview loop: the
// same state, the same ApplyStats, and on failure the same error at the
// same seq, with no later record folded. The linguistic half runs ahead
// on GOMAXPROCS workers (core.PrepareReview reads only frozen state); the
// fold, core.ApplyPrepared, runs on the caller's goroutine strictly in
// seq order, and it alone decides whether a review is already ingested
// and skipped (idempotent replay). At most replayWindowPerWorker records
// per worker are between the reader and the fold, so memory does not grow
// with the journal, and every worker has exited when ApplyAll returns. The caller
// must hold whatever writer exclusion the database requires.
func ApplyAll(db *core.DB, dir string) (ApplyStats, error) {
	a := &applier{db: db}
	defer a.stop()
	stats, err := replay(dir, a.add, a.settle)
	a.st.ReplayStats = stats
	return a.st, err
}

// replayWindowPerWorker sizes ApplyAll's window: records read but not yet
// folded, per prepare worker. A few per worker keep every worker busy
// while the fold waits on the oldest record.
const replayWindowPerWorker = 4

// pendingRecord is one journal record between the reader and the fold.
// done closes once p and err are set (at once for a review the database
// already holds, which the fold skips without a preparation).
type pendingRecord struct {
	seq  uint64
	rv   core.ReviewData
	p    *core.PreparedReview
	err  error
	done chan struct{}
}

// applier is ApplyAll's pipeline: add (the Replay callback) queues each
// record and hands it to a prepare worker, and folds the oldest record
// once the window is full; settle folds the rest at every segment end.
type applier struct {
	db      *core.DB
	st      ApplyStats
	jobs    chan *pendingRecord
	workers sync.WaitGroup
	window  []*pendingRecord // read, not yet folded, oldest first
	size    int
	failed  error
}

// add queues one record, starting the workers on the first.
func (a *applier) add(seq uint64, rv Review) error {
	if a.jobs == nil {
		n := runtime.GOMAXPROCS(0)
		a.size = replayWindowPerWorker * n
		a.jobs = make(chan *pendingRecord, a.size)
		a.workers.Add(n)
		for range n {
			go a.prepare()
		}
	}
	r := &pendingRecord{seq: seq, rv: core.ReviewData{
		ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
	}, done: make(chan struct{})}
	// Reviews are never removed, so one held now is still held at its fold.
	if a.db.HasReview(rv.ID) {
		close(r.done)
	} else {
		a.jobs <- r
	}
	a.window = append(a.window, r)
	if len(a.window) < a.size {
		return nil
	}
	return a.foldOldest()
}

// prepare is one worker: it prepares records until the channel closes.
func (a *applier) prepare() {
	defer a.workers.Done()
	for r := range a.jobs {
		r.p, r.err = a.db.PrepareReview(r.rv)
		close(r.done)
	}
}

// settle folds every queued record, in order.
func (a *applier) settle() error {
	for len(a.window) > 0 && a.failed == nil {
		a.foldOldest()
	}
	return a.failed
}

// foldOldest waits for the oldest queued record's preparation and folds
// it, exactly as the serial loop would: skipped if the review is already
// ingested, else applied, and a failure is kept and returned from then on.
func (a *applier) foldOldest() error {
	r := a.window[0]
	a.window[0] = nil
	a.window = a.window[1:]
	<-r.done
	if a.db.HasReview(r.rv.ID) {
		a.st.Skipped++
		return nil
	}
	err := r.err
	if err == nil {
		err = a.db.ApplyPrepared(r.p)
	}
	if err != nil {
		a.failed = fmt.Errorf("journal: apply seq %d (review %s): %w", r.seq, r.rv.ID, err)
		return a.failed
	}
	a.st.Applied++
	return nil
}

// stop closes the work channel and waits for every worker to exit.
func (a *applier) stop() {
	if a.jobs != nil {
		close(a.jobs)
		a.workers.Wait()
	}
}

// LoadWithJournal is the serving cold-start path of an enriched database:
// load the snapshot, then replay its journal (if any) through ApplyAll.
// The result answers queries byte-identically to a live database that
// ingested the same reviews in the same order — the replay-vs-rebuild
// contract enforced by the journal e2e tests.
func LoadWithJournal(snapshotPath string) (*core.DB, *snapshot.Meta, ApplyStats, error) {
	db, meta, err := snapshot.Load(snapshotPath)
	if err != nil {
		return nil, nil, ApplyStats{}, err
	}
	st, err := ApplyAll(db, Dir(snapshotPath))
	if err != nil {
		return nil, nil, st, err
	}
	return db, meta, st, nil
}

// lockForCompaction takes the journal directory's exclusive lock (the
// same lock a serving Journal holds) so compaction can never replay and
// then delete a journal out from under a live writer — the writer would
// keep acknowledging appends into unlinked segment files, silently
// losing every one of them at its next restart. A missing directory
// needs no lock; a held lock is a hard error telling the operator to
// stop the server first. The returned closer releases the lock (nil is
// returned for a missing directory and is safe to call).
func lockForCompaction(dir string) (func(), error) {
	if _, err := os.Stat(dir); err != nil {
		if os.IsNotExist(err) {
			return func() {}, nil
		}
		return nil, fmt.Errorf("journal: compact: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: compact: is a server still serving this journal? %w", err)
	}
	if lock == nil {
		return func() {}, nil
	}
	return func() { lock.Close() }, nil
}

// Compact folds a snapshot and its journal into a fresh snapshot at
// outPath (written atomically, shard identity preserved), then — when the
// compacted artifact replaces the original in place — removes the folded
// journal. The journal directory's lock is held throughout, so a live
// server still appending to it makes compaction fail fast instead of
// deleting segments out from under acknowledged writes. The ordering
// makes a crash at any point safe: the new snapshot only becomes visible
// complete (temp file + rename), and if the process dies before the
// journal is removed, replay skips the already-folded reviews.
func Compact(snapshotPath, outPath string) (*snapshot.Meta, ApplyStats, error) {
	unlock, err := lockForCompaction(Dir(snapshotPath))
	if err != nil {
		return nil, ApplyStats{}, err
	}
	defer unlock()
	db, loadMeta, st, err := LoadWithJournal(snapshotPath)
	if err != nil {
		return nil, st, err
	}
	meta, err := snapshot.SaveShard(outPath, db, loadMeta.Shard)
	if err != nil {
		return nil, st, fmt.Errorf("journal: compact: %w", err)
	}
	if samePath(outPath, snapshotPath) {
		if err := os.RemoveAll(Dir(snapshotPath)); err != nil {
			return nil, st, fmt.Errorf("journal: compact: drop folded journal: %w", err)
		}
	}
	return meta, st, nil
}

// samePath reports whether two path spellings name the same file, so an
// in-place compaction spelled "./x.snap" vs "x.snap" still drops its
// folded journal instead of replaying (and growing) it forever.
func samePath(a, b string) bool {
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	if errA != nil || errB != nil {
		return filepath.Clean(a) == filepath.Clean(b)
	}
	if aa == bb {
		return true
	}
	fa, errA := os.Stat(aa)
	fb, errB := os.Stat(bb)
	return errA == nil && errB == nil && os.SameFile(fa, fb)
}

// hasRecords cheaply probes whether a journal directory holds any record
// bytes (any segment larger than its header), without replaying it.
func hasRecords(dir string) (bool, error) {
	paths, _, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) || isNotDir(err) {
			return false, nil
		}
		return false, err
	}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return false, err
		}
		if fi.Size() > segmentHeaderLen {
			return true, nil
		}
	}
	return false, nil
}

// ShardCompaction reports one shard's outcome in CompactManifest.
type ShardCompaction struct {
	Index   int
	Applied int
	Skipped int
	// Digest is the shard snapshot's content digest after compaction.
	Digest string
}

// CompactManifest folds every shard's journal of a sharded build into a
// fresh per-shard snapshot and refreshes the manifest's content digests.
// Shards without journal records are left untouched (their recorded
// digests stay valid — the journal is a separate file, so live ingestion
// never invalidates the base snapshot's digest).
//
// Crash safety: each shard is folded with the ordering snapshot rename →
// manifest digest refresh → journal removal, and the manifest is
// rewritten (atomically) after every shard rather than once at the end,
// so a crash leaves at most one shard with a stale digest and its
// journal intact. Re-running CompactManifest heals that window: the
// shard snapshot is loaded without manifest-digest verification —
// compaction *produces* the digests, so it cannot demand they already
// match; the container's per-section CRCs still guard integrity — and
// replay is idempotent (already-folded reviews skip by id).
func CompactManifest(manifestPath string) (*snapshot.Manifest, []ShardCompaction, error) {
	m, err := snapshot.LoadManifest(manifestPath)
	if err != nil {
		return nil, nil, err
	}
	var out []ShardCompaction
	for i := range m.Shard {
		shardPath := snapshot.ShardPath(manifestPath, m.Shard[i])
		unlock, err := lockForCompaction(Dir(shardPath))
		if err != nil {
			return nil, out, fmt.Errorf("journal: shard %d: %w", i, err)
		}
		defer unlock()
		pending, err := hasRecords(Dir(shardPath))
		if err != nil {
			return nil, out, fmt.Errorf("journal: shard %d: %w", i, err)
		}
		if !pending {
			// Nothing to fold; drop an empty-but-present journal dir so the
			// fleet's disk layout stays canonical.
			_ = os.RemoveAll(Dir(shardPath))
			continue
		}
		db, loadMeta, err := snapshot.Load(shardPath)
		if err != nil {
			return nil, out, fmt.Errorf("journal: shard %d: %w", i, err)
		}
		if loadMeta.Shard == nil || loadMeta.Shard.Index != i || loadMeta.Shard.Count != m.Shards {
			return nil, out, fmt.Errorf("journal: shard %d: snapshot %s does not identify as shard %d/%d",
				i, shardPath, i, m.Shards)
		}
		st, err := ApplyAll(db, Dir(shardPath))
		if err != nil {
			return nil, out, fmt.Errorf("journal: shard %d: %w", i, err)
		}
		meta, err := snapshot.SaveShard(shardPath, db, loadMeta.Shard)
		if err != nil {
			return nil, out, fmt.Errorf("journal: shard %d: compact: %w", i, err)
		}
		m.Shard[i].SnapshotSHA256 = meta.SHA256
		m.Shard[i].SnapshotBytes = meta.FileBytes
		m.CreatedUnix = time.Now().Unix()
		if err := snapshot.WriteManifest(manifestPath, m); err != nil {
			return nil, out, fmt.Errorf("journal: shard %d: manifest refresh: %w", i, err)
		}
		if err := os.RemoveAll(Dir(shardPath)); err != nil {
			return nil, out, fmt.Errorf("journal: shard %d: drop folded journal: %w", i, err)
		}
		out = append(out, ShardCompaction{Index: i, Applied: st.Applied, Skipped: st.Skipped, Digest: meta.SHA256})
	}
	return m, out, nil
}

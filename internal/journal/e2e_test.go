package journal_test

// End-to-end tests of the incremental-enrichment contract on a monolith:
// a snapshot is the *base* and the journal the durable delta log, and
// snapshot + journal replay must answer the full 948-entry harness query
// fingerprint byte-identically to a database that ingested the same
// reviews live (replay-vs-rebuild). The suite also drives the real HTTP
// write endpoint from concurrent writers against concurrent readers
// under -race, proving the journal records the serialized ingestion
// order, and exercises torn-tail loss bounds and compaction.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/snapshot"
)

const e2eDeltaCount = 12

// Shared fixture: one small hotel corpus whose last reviews are held out
// of the base build as the live-ingestion deltas, and a snapshot of the
// base on disk.
var (
	e2eOnce   sync.Once
	e2eData   *corpus.Dataset
	e2eDeltas []core.ReviewData
	e2eSnap   string
	e2eErr    error
)

func e2eFixture(t *testing.T) (*corpus.Dataset, []core.ReviewData, string) {
	t.Helper()
	e2eOnce.Do(func() {
		genCfg := corpus.SmallConfig()
		genCfg.Seed = 1
		e2eData = corpus.GenerateHotels(genCfg)
		cfg := core.DefaultConfig()
		cfg.Seed = 1
		// Same derivation as harness.BuildDB, minus the held-out tail.
		rng := rand.New(rand.NewSource(cfg.Seed + 13))
		in := harness.BuildInputFromDataset(e2eData, 400, 300, rng)
		split := len(in.Reviews) - e2eDeltaCount
		e2eDeltas = append([]core.ReviewData(nil), in.Reviews[split:]...)
		in.Reviews = in.Reviews[:split]
		base, err := core.Build(in, cfg)
		if err != nil {
			e2eErr = fmt.Errorf("base build: %w", err)
			return
		}
		dir, err := os.MkdirTemp("", "journal-e2e-*")
		if err != nil {
			e2eErr = err
			return
		}
		// The dir outlives the fixture deliberately (shared by the whole
		// package run); the OS temp cleaner reclaims it.
		e2eSnap = filepath.Join(dir, "hotel-base.snap")
		if _, err := snapshot.Save(e2eSnap, base); err != nil {
			e2eErr = err
		}
	})
	if e2eErr != nil {
		t.Fatalf("e2e fixture: %v", e2eErr)
	}
	return e2eData, e2eDeltas, e2eSnap
}

// loadBase loads a fresh mutable copy of the base snapshot.
func loadBase(t *testing.T, snap string) *core.DB {
	t.Helper()
	db, _, err := snapshot.Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// applyDirect ingests deltas through the live ApplyReview path.
func applyDirect(t *testing.T, db *core.DB, deltas []core.ReviewData) {
	t.Helper()
	for _, rv := range deltas {
		if err := db.ApplyReview(rv); err != nil {
			t.Fatalf("apply %s: %v", rv.ID, err)
		}
	}
}

// journalDeltas writes deltas into a journal at dir.
func journalDeltas(t *testing.T, dir string, deltas []core.ReviewData, opts journal.Options) {
	t.Helper()
	j, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rv := range deltas {
		if _, err := j.Append(journal.Review{
			ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayVsRebuildFingerprint is the tentpole contract: snapshot +
// journal replay answers the full 948-entry fingerprint byte-identically
// to live ingestion over the same union corpus, for any journal geometry,
// and compaction preserves it.
func TestReplayVsRebuildFingerprint(t *testing.T) {
	d, deltas, snap := e2eFixture(t)

	// The "rebuild": a fresh base that ingests the deltas live, never
	// touching a journal.
	live := loadBase(t, snap)
	applyDirect(t, live, deltas)
	liveFP, n := harness.QueryFingerprint(d, live)
	if n != 948 {
		t.Errorf("fingerprint covers %d query-set entries, want the full 948", n)
	}

	// The "replay": the canonical snapshot → journal → serve path.
	jdir := journal.Dir(snap)
	defer os.RemoveAll(jdir)
	journalDeltas(t, jdir, deltas, journal.Options{})
	replayed, _, st, err := journal.LoadWithJournal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != len(deltas) || st.Skipped != 0 {
		t.Fatalf("replay applied %d / skipped %d, want %d / 0", st.Applied, st.Skipped, len(deltas))
	}
	replayFP, _ := harness.QueryFingerprint(d, replayed)
	if replayFP != liveFP {
		t.Fatal("snapshot+journal replay diverges from live ingestion over the union corpus")
	}

	// Journal geometry (segment size, fsync batching) never shifts the
	// replayed state.
	for _, opts := range []journal.Options{
		{SegmentMaxBytes: 1 << 10, SyncEvery: 1},
		{SegmentMaxBytes: 1 << 20, SyncEvery: 5},
	} {
		dir := filepath.Join(t.TempDir(), "j")
		journalDeltas(t, dir, deltas, opts)
		db := loadBase(t, snap)
		if _, err := journal.ApplyAll(db, dir); err != nil {
			t.Fatal(err)
		}
		fp, _ := harness.QueryFingerprint(d, db)
		if fp != liveFP {
			t.Fatalf("journal geometry %+v changed the replayed fingerprint", opts)
		}
	}

	// Compaction folds the pair into a fresh base with the same answers.
	compacted := filepath.Join(t.TempDir(), "hotel-compacted.snap")
	if _, st, err := journal.Compact(snap, compacted); err != nil || st.Applied != len(deltas) {
		t.Fatalf("compact: applied %d, err %v", st.Applied, err)
	}
	folded, _, foldSt, err := journal.LoadWithJournal(compacted)
	if err != nil {
		t.Fatal(err)
	}
	if foldSt.Records != 0 {
		t.Fatalf("compacted snapshot should start with an empty journal, found %d records", foldSt.Records)
	}
	foldedFP, _ := harness.QueryFingerprint(d, folded)
	if foldedFP != liveFP {
		t.Fatal("compacted snapshot diverges from live ingestion")
	}

	// Crash between a compaction's snapshot rename and journal removal:
	// the folded snapshot sees its own deltas again and must skip them.
	overlapDir := journal.Dir(compacted)
	defer os.RemoveAll(overlapDir)
	journalDeltas(t, overlapDir, deltas, journal.Options{})
	again, _, overlapSt, err := journal.LoadWithJournal(compacted)
	if err != nil {
		t.Fatal(err)
	}
	if overlapSt.Skipped != len(deltas) || overlapSt.Applied != 0 {
		t.Fatalf("idempotent replay: applied %d / skipped %d, want 0 / %d",
			overlapSt.Applied, overlapSt.Skipped, len(deltas))
	}
	againFP, _ := harness.QueryFingerprint(d, again)
	if againFP != liveFP {
		t.Fatal("idempotent replay diverged")
	}
}

// TestTornTailLosesOnlyTheTail: a crash that tears the final record
// yields a clean load whose state is exactly the live state minus the
// torn (never-acknowledged-durable) review.
func TestTornTailLosesOnlyTheTail(t *testing.T) {
	d, deltas, snap := e2eFixture(t)
	jdir := journal.Dir(snap)
	defer os.RemoveAll(jdir)
	journalDeltas(t, jdir, deltas, journal.Options{})

	// Tear the last record: chop 3 bytes off the final segment.
	segs, err := filepath.Glob(filepath.Join(jdir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	replayed, _, st, err := journal.LoadWithJournal(snap)
	if err != nil {
		t.Fatalf("torn tail must not fail the load: %v", err)
	}
	if st.TailErr == nil || st.Applied != len(deltas)-1 {
		t.Fatalf("torn tail: applied %d (tail %v), want %d with damage", st.Applied, st.TailErr, len(deltas)-1)
	}
	reference := loadBase(t, snap)
	applyDirect(t, reference, deltas[:len(deltas)-1])
	gotFP, _ := harness.QueryFingerprint(d, replayed)
	wantFP, _ := harness.QueryFingerprint(d, reference)
	if gotFP != wantFP {
		t.Fatal("torn-tail recovery diverges from the acknowledged prefix")
	}
}

// TestConcurrentIngestReplayDeterminism drives POST /reviews from many
// goroutines against /query and /topk readers on one daemon under -race,
// then proves the journal captured the server's serialized write order:
// a fresh snapshot+journal load fingerprints byte-identically to the
// live, concurrently mutated database — regardless of fsync batch size.
func TestConcurrentIngestReplayDeterminism(t *testing.T) {
	d, _, snap := e2eFixture(t)
	db := loadBase(t, snap)
	jdir := filepath.Join(t.TempDir(), "ingest.journal")
	j, err := journal.Open(jdir, journal.Options{SyncEvery: 3, SegmentMaxBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(db, server.Options{
		Ingest: &server.IngestOptions{
			Append: func(rv core.ReviewData) (uint64, error) {
				return j.Append(journal.Review{
					ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
				})
			},
		},
	}))
	defer srv.Close()

	entities := db.EntityIDs()
	texts := []string{
		"The room was very clean and the staff was friendly.",
		"Dirty bathroom and rude service, terrible stay.",
		"Comfortable bed, excellent breakfast, great location.",
	}
	const writers, perWriter, readers = 4, 8, 3
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				req := server.ReviewRequest{
					ID:       fmt.Sprintf("live-%d-%d", w, i),
					EntityID: entities[(w*perWriter+i)%len(entities)],
					Reviewer: fmt.Sprintf("writer%d", w),
					Day:      4000 + i,
					Text:     texts[(w+i)%len(texts)],
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(srv.URL+"/reviews", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var ack server.ReviewResponse
				decErr := json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					errs <- fmt.Errorf("write %s: status %d (%v)", req.ID, resp.StatusCode, decErr)
					return
				}
				if !ack.Owned || ack.Seq == 0 {
					errs <- fmt.Errorf("write %s: ack %+v", req.ID, ack)
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				var url string
				if i%2 == 0 {
					url = srv.URL + `/query?sql=select+*+from+Entities+where+%22has+really+clean+rooms%22&k=5`
				} else {
					url = srv.URL + `/topk?predicate=has+friendly+staff&k=5`
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader got status %d", resp.StatusCode)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	liveFP, n := harness.QueryFingerprint(d, db)
	replayed := loadBase(t, snap)
	st, err := journal.ApplyAll(replayed, jdir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied != writers*perWriter {
		t.Fatalf("journal replayed %d writes, want %d", st.Applied, writers*perWriter)
	}
	replayFP, _ := harness.QueryFingerprint(d, replayed)
	if replayFP != liveFP {
		t.Fatalf("snapshot+journal replay diverges from the concurrently ingested daemon (%d entries)", n)
	}
}

// TestIngestEndpointErrors pins the write endpoint's error contract.
func TestIngestEndpointErrors(t *testing.T) {
	_, deltas, snap := e2eFixture(t)
	db := loadBase(t, snap)
	srv := httptest.NewServer(server.New(db, server.Options{
		Ingest: &server.IngestOptions{},
	}))
	defer srv.Close()
	readonly := httptest.NewServer(server.New(loadBase(t, snap), server.Options{}))
	defer readonly.Close()

	post := func(t *testing.T, url string, body string) (int, map[string]interface{}) {
		t.Helper()
		resp, err := http.Post(url+"/reviews", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]interface{}
		_ = json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m
	}
	valid, _ := json.Marshal(server.ReviewRequest{
		ID: deltas[0].ID, EntityID: deltas[0].EntityID, Reviewer: "x", Day: 1, Text: deltas[0].Text,
	})

	if status, _ := post(t, readonly.URL, string(valid)); status != http.StatusForbidden {
		t.Errorf("read-only server: status %d, want 403", status)
	}
	if status, _ := post(t, srv.URL, `{"id":"a"}`); status != http.StatusBadRequest {
		t.Errorf("missing fields: status %d, want 400", status)
	}
	if status, _ := post(t, srv.URL, `{"id":"a","entity":"b","text":"t","bogus":1}`); status != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", status)
	}
	if status, m := post(t, srv.URL, `{"id":"g1","entity":"zzzz-ghost","text":"nice room"}`); status != http.StatusNotFound || m["error"] == "" {
		t.Errorf("ghost entity: status %d (%v), want 404 envelope", status, m)
	}
	if status, _ := post(t, srv.URL, string(valid)); status != http.StatusOK {
		t.Errorf("valid write: status %d, want 200", status)
	}
	if status, _ := post(t, srv.URL, string(valid)); status != http.StatusConflict {
		t.Errorf("duplicate write: status %d, want 409", status)
	}
	resp, err := http.Get(srv.URL + "/reviews")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "POST" {
		t.Errorf("GET /reviews: status %d Allow %q, want 405 POST", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

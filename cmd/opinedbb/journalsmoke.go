package main

// opinedbb -journal-smoke: the end-to-end crash drill of the incremental
// enrichment stack, runnable in CI. The parent builds a small corpus,
// writes a snapshot, then re-executes itself as an ingestion worker that
// appends review deltas to the journal as fast as it can. The parent
// SIGKILLs the worker mid-write — the real crash, not a simulation — and
// then proves the recovery contract:
//
//  1. snapshot + journal load with no error (a torn tail is truncated,
//     never served),
//  2. every acknowledged append survived as a contiguous prefix,
//  3. the replayed database answers the full harness query fingerprint
//     byte-identically to a fresh load that applied the same reviews
//     directly (replay-vs-rebuild), and
//  4. compacting the pair into a fresh snapshot preserves the fingerprint.

import (
	"bufio"
	"fmt"
	"log"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/snapshot"
)

// smokeChildEnv carries the journal directory to the re-executed
// ingestion worker; its presence selects child mode in main.
const smokeChildEnv = "OPINEDBB_JOURNAL_SMOKE_DIR"

// smokeEntitiesEnv carries the entity-id file to the worker.
const smokeEntitiesEnv = "OPINEDBB_JOURNAL_SMOKE_ENTITIES"

// smokeTexts cycle through the worker's generated reviews; they use
// schema vocabulary so extraction materializes real summary updates.
var smokeTexts = []string{
	"The room was very clean and the staff was friendly.",
	"Spotless bathroom but the service was quite slow.",
	"The bed was comfortable. The breakfast was excellent.",
	"Noisy room and the wifi was terrible.",
	"The staff was helpful and the location was great.",
	"Dirty carpet. The room smelled bad and the shower was cold.",
}

// smokeReview builds the worker's i-th deterministic review delta.
func smokeReview(i int, entities []string) journal.Review {
	return journal.Review{
		ID:       fmt.Sprintf("smoke-%06d", i),
		EntityID: entities[i%len(entities)],
		Reviewer: fmt.Sprintf("smoker%02d", i%7),
		Day:      4000 + i,
		Text:     smokeTexts[i%len(smokeTexts)],
	}
}

// journalSmokeChild is the ingestion worker: append deltas forever (small
// segments, batched fsync — the adversarial configuration) and report
// each acknowledged sequence number on stdout until the parent kills it.
func journalSmokeChild() {
	dir := os.Getenv(smokeChildEnv)
	raw, err := os.ReadFile(os.Getenv(smokeEntitiesEnv))
	if err != nil {
		log.Fatalf("smoke child: %v", err)
	}
	entities := strings.Fields(string(raw))
	j, err := journal.Open(dir, journal.Options{SyncEvery: 4, SegmentMaxBytes: 8 << 10})
	if err != nil {
		log.Fatalf("smoke child: %v", err)
	}
	w := bufio.NewWriter(os.Stdout)
	for i := 0; ; i++ {
		seq, err := j.Append(smokeReview(i, entities))
		if err != nil {
			log.Fatalf("smoke child: append: %v", err)
		}
		fmt.Fprintf(w, "acked %d\n", seq)
		w.Flush()
	}
}

// runJournalSmoke is the parent drill; see the file comment.
func runJournalSmoke(domain string, seed int64, out string) {
	log.Printf("journal-smoke: building small %s corpus...", domain)
	d, db, err := harness.BuildDomain(domain, true, seed, 0, 400, 300)
	if err != nil {
		log.Fatalf("journal-smoke: build: %v", err)
	}
	if _, err := snapshot.Save(out, db); err != nil {
		log.Fatalf("journal-smoke: save: %v", err)
	}
	dir := journal.Dir(out)
	if err := os.RemoveAll(dir); err != nil {
		log.Fatalf("journal-smoke: %v", err)
	}

	entities := db.EntityIDs()
	if len(entities) > 50 {
		entities = entities[:50]
	}
	entFile, err := os.CreateTemp("", "opinedb-smoke-entities-*")
	if err != nil {
		log.Fatalf("journal-smoke: %v", err)
	}
	defer os.Remove(entFile.Name())
	fmt.Fprintln(entFile, strings.Join(entities, "\n"))
	entFile.Close()

	// Re-execute this binary as the ingestion worker and kill it cold
	// after it has acknowledged a batch of appends.
	exe, err := os.Executable()
	if err != nil {
		log.Fatalf("journal-smoke: %v", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), smokeChildEnv+"="+dir, smokeEntitiesEnv+"="+entFile.Name())
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Fatalf("journal-smoke: %v", err)
	}
	if err := cmd.Start(); err != nil {
		log.Fatalf("journal-smoke: start worker: %v", err)
	}
	var lastAcked uint64
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if seqs, ok := strings.CutPrefix(line, "acked "); ok {
			if seq, err := strconv.ParseUint(seqs, 10, 64); err == nil && seq > lastAcked {
				lastAcked = seq
			}
		}
		if lastAcked >= 40 {
			break
		}
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL, mid-write
		log.Fatalf("journal-smoke: kill worker: %v", err)
	}
	go func() {
		for sc.Scan() {
		}
	}()
	_ = cmd.Wait()
	if lastAcked < 40 {
		log.Fatalf("journal-smoke: worker died after only %d acknowledged appends", lastAcked)
	}
	log.Printf("journal-smoke: SIGKILLed the ingestion worker after seq %d", lastAcked)

	// 1–2: recovery — the journal replays cleanly and every acknowledged
	// append survived as a contiguous prefix.
	var recovered []journal.Review
	stats, err := journal.Replay(dir, func(seq uint64, rv journal.Review) error {
		recovered = append(recovered, rv)
		return nil
	})
	if err != nil {
		log.Fatalf("journal-smoke: replay after crash: %v", err)
	}
	if stats.TailErr != nil {
		log.Printf("journal-smoke: torn tail dropped cleanly: %d bytes (%v)", stats.DroppedBytes, stats.TailErr)
	}
	// An append is acknowledged only after its bytes reached the OS, and
	// a process SIGKILL cannot unwrite them — only the record the worker
	// was mid-append on may be torn.
	if uint64(len(recovered)) < lastAcked {
		log.Fatalf("journal-smoke: recovered %d records, but %d were acknowledged", len(recovered), lastAcked)
	}
	for i, rv := range recovered {
		if want := fmt.Sprintf("smoke-%06d", i); rv.ID != want {
			log.Fatalf("journal-smoke: recovered record %d is %s, want %s (not a contiguous prefix)", i, rv.ID, want)
		}
	}

	// 3: replay-vs-rebuild — snapshot+journal must answer byte-identically
	// to a fresh load that applies the same deltas directly.
	replayed, _, applyStats, err := journal.LoadWithJournal(out)
	if err != nil {
		log.Fatalf("journal-smoke: load with journal: %v", err)
	}
	if applyStats.Applied != len(recovered) {
		log.Fatalf("journal-smoke: replay applied %d of %d recovered reviews", applyStats.Applied, len(recovered))
	}
	reference, _, err := snapshot.Load(out)
	if err != nil {
		log.Fatalf("journal-smoke: reference load: %v", err)
	}
	for _, rv := range recovered {
		if err := reference.ApplyReview(core.ReviewData{
			ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
		}); err != nil {
			log.Fatalf("journal-smoke: reference apply: %v", err)
		}
	}
	replayFP, n := harness.QueryFingerprint(d, replayed)
	referenceFP, _ := harness.QueryFingerprint(d, reference)
	if replayFP != referenceFP {
		log.Fatalf("journal-smoke: snapshot+journal replay diverges from direct application over %d query-set entries", n)
	}

	// 4: compaction preserves the fingerprint.
	compacted := out + ".compacted"
	if _, _, err := journal.Compact(out, compacted); err != nil {
		log.Fatalf("journal-smoke: compact: %v", err)
	}
	defer os.Remove(compacted)
	folded, _, foldStats, err := journal.LoadWithJournal(compacted)
	if err != nil {
		log.Fatalf("journal-smoke: load compacted: %v", err)
	}
	if foldStats.Records != 0 {
		log.Fatalf("journal-smoke: compacted artifact should start with an empty journal, replayed %d", foldStats.Records)
	}
	foldedFP, _ := harness.QueryFingerprint(d, folded)
	if foldedFP != replayFP {
		log.Fatalf("journal-smoke: compacted snapshot diverges from replayed state over %d query-set entries", n)
	}

	fmt.Printf("journal-smoke OK: crash-killed after %d acked appends, recovered %d (torn tail: %d bytes), replay and compaction byte-identical over %d query-set entries\n",
		lastAcked, len(recovered), stats.DroppedBytes, n)
}

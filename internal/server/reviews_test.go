package server_test

// Outcomes of POST /reviews, the one write path (group commit): every
// refusal and both kinds of acknowledgement, a duplicate that shares a
// commit batch with its original, and a failing journal — which must
// answer 500 and leave the database, the applied sequence and the
// prefix-hash chain exactly where they were.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// cloneFixture returns a private copy of the shared fixture database
// (snapshot round trip: writes must not reach the package fixture, nor
// any other clone) and the temp directory it was written to.
func cloneFixture(t *testing.T) (*core.DB, string) {
	t.Helper()
	_, db, _ := testServer(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "clone.snap")
	if _, err := snapshot.Save(snap, db); err != nil {
		t.Fatal(err)
	}
	clone, _, err := snapshot.Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	return clone, dir
}

func serveDB(t *testing.T, db *core.DB, opts server.Options) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(server.New(db, opts))
	t.Cleanup(srv.Close)
	return srv
}

// openJournal opens a fresh journal under dir, closed with the test.
func openJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	j, err := journal.Open(filepath.Join(dir, "wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// send issues one /reviews request and returns status, headers and body.
func send(t *testing.T, base, method, body string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(method, base+"/reviews", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(out)
}

func reviewJSON(id, entity string, replica bool) string {
	return fmt.Sprintf(`{"id":%q,"entity":%q,"reviewer":"op","day":7,"text":"The room was spotless and the staff was friendly.","replica":%v}`,
		id, entity, replica)
}

func TestReviewsOutcomes(t *testing.T) {
	_, _, readOnly := testServer(t)

	db, _ := cloneFixture(t)
	entity := db.EntityIDs()[0]
	volatile := serveDB(t, db, server.Options{Ingest: &server.IngestOptions{}})

	// Two shard-0 servers, each cut from its own clone (shards of one
	// in-memory database share corpus-global state): one absorbs
	// replicated writes for entities it does not serve, one does not.
	shard0 := func(acceptUnowned bool) (*httptest.Server, string) {
		whole, _ := cloneFixture(t)
		shards, parts, err := whole.Shards(2)
		if err != nil {
			t.Fatal(err)
		}
		return serveDB(t, shards[0], server.Options{
			Ingest: &server.IngestOptions{AcceptUnowned: acceptUnowned},
		}), parts[1][0]
	}
	accepting, foreign := shard0(true)
	strict, _ := shard0(false)

	// Rows run in order against long-lived servers: the duplicate row
	// depends on the ack row before it.
	for _, tc := range []struct {
		name   string
		srv    *httptest.Server
		method string
		body   string
		status int
		want   string // substring of the response body
		allow  string // Allow header, when set
	}{
		{name: "read-only server", srv: readOnly, method: "POST", body: reviewJSON("ro", entity, false),
			status: http.StatusForbidden, want: "read-only server"},
		{name: "wrong method", srv: volatile, method: "GET",
			status: http.StatusMethodNotAllowed, want: "use POST", allow: "POST"},
		{name: "missing id", srv: volatile, method: "POST", body: reviewJSON(" ", entity, false),
			status: http.StatusBadRequest, want: "missing id or entity"},
		{name: "missing entity", srv: volatile, method: "POST", body: reviewJSON("r0", "", false),
			status: http.StatusBadRequest, want: "missing id or entity"},
		{name: "missing text", srv: volatile, method: "POST", body: `{"id":"r0","entity":"` + entity + `","text":"  "}`,
			status: http.StatusBadRequest, want: "missing text"},
		{name: "malformed body", srv: volatile, method: "POST", body: `{"id":`,
			status: http.StatusBadRequest, want: "bad request body"},
		{name: "ghost entity", srv: volatile, method: "POST", body: reviewJSON("r0", "h-nope", false),
			status: http.StatusNotFound, want: `no entity \"h-nope\" served here`},
		{name: "volatile ack", srv: volatile, method: "POST", body: reviewJSON("r1", entity, false),
			status: http.StatusOK, want: `"owned":true,`},
		{name: "volatile ack is not durable", srv: volatile, method: "POST", body: reviewJSON("r2", entity, false),
			status: http.StatusOK, want: `"seq":0,"durable":false`},
		{name: "duplicate of an applied review", srv: volatile, method: "POST", body: reviewJSON("r1", entity, false),
			status: http.StatusConflict, want: "already ingested"},
		{name: "unowned direct write", srv: accepting, method: "POST", body: reviewJSON("u1", foreign, false),
			status: http.StatusNotFound, want: "served here"},
		{name: "unowned replica write, AcceptUnowned off", srv: strict, method: "POST", body: reviewJSON("u1", foreign, true),
			status: http.StatusNotFound, want: "served here"},
		{name: "unowned replica write, AcceptUnowned on", srv: accepting, method: "POST", body: reviewJSON("u1", foreign, true),
			status: http.StatusOK, want: `"owned":false,`},
	} {
		status, hdr, body := send(t, tc.srv.URL, tc.method, tc.body)
		if status != tc.status || !strings.Contains(body, tc.want) {
			t.Errorf("%s: got %d %s, want %d containing %q", tc.name, status, body, tc.status, tc.want)
		}
		if tc.allow != "" && hdr.Get("Allow") != tc.allow {
			t.Errorf("%s: Allow = %q, want %q", tc.name, hdr.Get("Allow"), tc.allow)
		}
	}
}

// TestReviewsJournaledAcksAreDurable: behind a journal every ack says
// durable and carries the next journal sequence.
func TestReviewsJournaledAcksAreDurable(t *testing.T) {
	db, dir := cloneFixture(t)
	srv := serveDB(t, db, server.Options{Ingest: server.JournaledIngest(openJournal(t, dir))})
	for i := 1; i <= 3; i++ {
		ack := postReview(t, srv.URL, server.ReviewRequest{
			ID: fmt.Sprintf("d%d", i), EntityID: db.EntityIDs()[0], Text: "The room was spotless.",
		})
		if !ack.Durable || ack.Seq != uint64(i) {
			t.Fatalf("write %d acked seq %d durable %v", i, ack.Seq, ack.Durable)
		}
	}
}

// TestReviewsDuplicateInOneBatch: two writes with one id that stage into
// the same commit batch — where HasReview cannot know either yet — still
// yield one ack, one 409, and one journal record.
func TestReviewsDuplicateInOneBatch(t *testing.T) {
	db, dir := cloneFixture(t)
	entity := db.EntityIDs()[0]
	ing := server.JournaledIngest(openJournal(t, dir))
	entered, release := make(chan struct{}), make(chan struct{})
	first := true
	inner := ing.AppendBatch
	ing.AppendBatch = func(rvs []core.ReviewData) (uint64, error) {
		// Only the one in-flight leader calls AppendBatch.
		if first {
			first = false
			close(entered)
			<-release
		}
		return inner(rvs)
	}
	srv := serveDB(t, db, server.Options{Ingest: ing})

	post := func(id string) chan int {
		c := make(chan int, 1)
		go func() {
			resp, err := http.Post(srv.URL+"/reviews", "application/json", strings.NewReader(reviewJSON(id, entity, false)))
			if err != nil {
				t.Error(err)
				c <- 0
				return
			}
			resp.Body.Close()
			c <- resp.StatusCode
		}()
		return c
	}
	lead := post("lead")
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached AppendBatch")
	}
	a, b := post("dup"), post("dup")
	waitForGauge(t, srv.URL, server.MetricCommitQueueDepth, "2")
	close(release)
	if got := <-lead; got != http.StatusOK {
		t.Fatalf("leading write: %d", got)
	}
	got := []int{<-a, <-b}
	if !(got[0] == http.StatusOK && got[1] == http.StatusConflict) &&
		!(got[0] == http.StatusConflict && got[1] == http.StatusOK) {
		t.Fatalf("same-batch duplicates answered %v, want one 200 and one 409", got)
	}
	var st server.JournalStatusResponse
	getJSON(t, srv.URL+"/journal/status", http.StatusOK, &st)
	if st.LastSeq != 2 || st.LastAppliedSeq != 2 {
		t.Fatalf("journal holds %d records (%d applied), want 2", st.LastSeq, st.LastAppliedSeq)
	}
}

// TestReviewsJournalErrorAppliesNothing: when the journal refuses a
// batch — through AppendBatch, or through Append on a server wired
// without it — the write answers 500, is not applied, moves neither the
// applied sequence nor the prefix-hash chain, and the next write commits
// as if the failed one had never arrived.
func TestReviewsJournalErrorAppliesNothing(t *testing.T) {
	for _, appendOnly := range []bool{false, true} {
		t.Run(fmt.Sprintf("appendOnly=%v", appendOnly), func(t *testing.T) {
			db, dir := cloneFixture(t)
			entity := db.EntityIDs()[0]
			ing := server.JournaledIngest(openJournal(t, dir))
			var failNext atomic.Bool
			broken := errors.New("disk on fire")
			if appendOnly {
				ing.AppendBatch = nil
				inner := ing.Append
				ing.Append = func(rv core.ReviewData) (uint64, error) {
					if failNext.CompareAndSwap(true, false) {
						return 0, broken
					}
					return inner(rv)
				}
			} else {
				inner := ing.AppendBatch
				ing.AppendBatch = func(rvs []core.ReviewData) (uint64, error) {
					if failNext.CompareAndSwap(true, false) {
						return 0, broken
					}
					return inner(rvs)
				}
			}
			srv := serveDB(t, db, server.Options{Ingest: ing})

			position := func() (st server.JournalStatusResponse, applied uint64) {
				t.Helper()
				getJSON(t, srv.URL+"/journal/status", http.StatusOK, &st)
				var h server.HealthResponse
				getJSON(t, srv.URL+"/healthz", http.StatusOK, &h)
				if h.Journal == nil {
					t.Fatal("/healthz reports no journal")
				}
				return st, h.Journal.LastAppliedSeq
			}

			if ack := postReview(t, srv.URL, server.ReviewRequest{ID: "ok-1", EntityID: entity, Text: "Very clean room."}); ack.Seq != 1 {
				t.Fatalf("first write acked seq %d", ack.Seq)
			}
			before, appliedBefore := position()

			failNext.Store(true)
			status, _, body := send(t, srv.URL, "POST", reviewJSON("lost", entity, false))
			if status != http.StatusInternalServerError || !strings.Contains(body, "journal append: disk on fire") {
				t.Fatalf("failed append answered %d %s, want 500 journal append: disk on fire", status, body)
			}
			if db.HasReview("lost") {
				t.Fatal("a review the journal refused was applied")
			}
			after, appliedAfter := position()
			if after != before || appliedAfter != appliedBefore {
				t.Fatalf("journal position moved on a failed append:\nbefore %+v applied %d\nafter  %+v applied %d",
					before, appliedBefore, after, appliedAfter)
			}

			ack := postReview(t, srv.URL, server.ReviewRequest{ID: "ok-2", EntityID: entity, Text: "Very clean room."})
			if ack.Seq != 2 || ack.Durable != true {
				t.Fatalf("write after the failure acked seq %d durable %v, want seq 2 durable", ack.Seq, ack.Durable)
			}
			next, appliedNext := position()
			if next.LastSeq != 2 || next.HashSeq != 2 || appliedNext != 2 || next.PrefixHash == before.PrefixHash {
				t.Fatalf("chain did not advance past the failure: %+v applied %d", next, appliedNext)
			}
		})
	}
}

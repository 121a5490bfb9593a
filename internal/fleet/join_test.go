package fleet_test

// Live-join contracts: a fresh node starting from the range's verified
// snapshot catches up to the fleet's exact journal position with the
// byte-identity proof, and anything that cannot end byte-identical —
// a joiner without a journal, a joiner whose journal diverges from the
// fleet's prefix — is refused outright rather than full-synced.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// newJoiner loads shard index from the manifest into a fresh node with
// its own journal in jdir, returning the backend and its live pieces.
func newJoiner(t *testing.T, manifestPath string, m *snapshot.Manifest, index int, jdir string) (*router.LocalBackend, *core.DB, *journal.Journal) {
	t.Helper()
	db, _, err := snapshot.LoadVerifiedShard(manifestPath, m, index)
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := journal.ApplyAll(db, jdir)
	if err != nil {
		t.Fatal(err)
	}
	b := router.NewLocalBackend(fmt.Sprintf("joiner%d", index), db, server.Options{
		Ingest: &server.IngestOptions{
			AcceptUnowned:  true,
			JournalDir:     jdir,
			JournalLastSeq: st.LastSeq,
			Append: func(rv core.ReviewData) (uint64, error) {
				return j.Append(journal.Review{
					ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
				})
			},
		},
	})
	t.Cleanup(func() { _ = j.Close() })
	return b, db, j
}

func TestJoinReplicaCatchesUpFreshNode(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	manifestPath := writeFleet(t, dir, 2)
	m, nodes, rt := serveFleet(t, manifestPath, router.Options{})
	ingestThrough(t, rt, fixDeltas)

	backends := make([]fleet.Backend, len(nodes))
	for i, node := range nodes {
		backends[i] = node.backend
	}
	joiner, jdb, _ := newJoiner(t, manifestPath, m, 0, t.TempDir())

	report, err := fleet.JoinReplica(context.Background(), backends, joiner)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(len(fixDeltas))
	if report.ReferenceSeq != want || report.Before != 0 || report.After != want {
		t.Fatalf("join moved %d→%d against reference seq %d, want 0→%d", report.Before, report.After, report.ReferenceSeq, want)
	}
	if report.Backfilled != len(fixDeltas) || !report.Identical {
		t.Fatalf("report = %+v, want %d backfilled and identical", report, len(fixDeltas))
	}

	// The joiner's state must equal an always-healthy replica of the
	// range: snapshot + every delta applied directly in fleet order.
	twin, _, err := snapshot.LoadVerifiedShard(manifestPath, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rv := range fixDeltas {
		if err := twin.ApplyReview(rv); err != nil {
			t.Fatal(err)
		}
	}
	wantFP, _ := harness.QueryFingerprint(fixData, twin)
	if gotFP, _ := harness.QueryFingerprint(fixData, jdb); gotFP != wantFP {
		t.Fatal("joined node's state diverges from an always-healthy replica")
	}

	// A second pass is a no-op that still proves identity.
	again, err := fleet.JoinReplica(context.Background(), backends, joiner)
	if err != nil {
		t.Fatal(err)
	}
	if again.Backfilled != 0 || !again.Identical {
		t.Fatalf("second pass = %+v, want nothing to do and identical", again)
	}
}

func TestJoinReplicaRefusesUnfit(t *testing.T) {
	fixture(t)
	dir := t.TempDir()
	manifestPath := writeFleet(t, dir, 2)
	m, nodes, rt := serveFleet(t, manifestPath, router.Options{})
	ingestThrough(t, rt, fixDeltas)
	backends := make([]fleet.Backend, len(nodes))
	for i, node := range nodes {
		backends[i] = node.backend
	}

	// A joiner without a journal surface can never carry the fleet order.
	db, _, err := snapshot.LoadVerifiedShard(manifestPath, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	bare := router.NewLocalBackend("bare", db, server.Options{})
	if _, err := fleet.JoinReplica(context.Background(), backends, bare); err == nil ||
		!strings.Contains(err.Error(), "must journal") {
		t.Fatalf("journal-less joiner: got %v, want a must-journal refusal", err)
	}

	// A joiner whose journal holds a record the fleet never saw has
	// diverged; join refuses rather than full-syncing away its history.
	diverged, _, _ := newJoiner(t, manifestPath, m, 0, t.TempDir())
	rogue, err := json.Marshal(server.ReviewRequest{
		ID: "rogue-1", EntityID: m.Shard[0].FirstEntity, Reviewer: "rogue", Day: 1, Text: "not the fleet's record",
	})
	if err != nil {
		t.Fatal(err)
	}
	if status, body, err := diverged.Do(context.Background(), "POST", "/reviews", rogue); err != nil || status != http.StatusOK {
		t.Fatalf("seeding rogue write: status %d err %v body %s", status, err, body)
	}
	if _, err := fleet.JoinReplica(context.Background(), backends, diverged); err == nil ||
		!strings.Contains(err.Error(), "diverges") {
		t.Fatalf("diverged joiner: got %v, want a divergence refusal", err)
	}
}

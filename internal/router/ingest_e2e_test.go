package router_test

// End-to-end test of sharded live ingestion: a base build is held short
// of its last reviews, sharded onto disk, served over real HTTP with a
// journal per shard, and the held-out reviews are written through the
// router's POST /reviews. The acceptance contract: the fleet answers the
// full 948-entry harness fingerprint byte-identically to a monolith that
// ingested the same reviews — both live and after every shard restarts
// from its snapshot + journal — because writes are owner-first,
// replicated to every shard's corpus-global state, and journaled in one
// fleet-wide order.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
)

const (
	ingestShards = 3
	ingestDeltas = 12
)

var (
	ingestOnce     sync.Once
	ingestData     *corpus.Dataset
	ingestDeltaRvs []core.ReviewData
	ingestBaseSnap string // monolithic base snapshot (reference loads)
	ingestManifest string
	ingestURLs     []string
	ingestJournals []*journal.Journal // live shard journals (closed before compaction)
	ingestErr      error
)

// ingestFixture builds the base corpus (minus the delta tail), writes a
// monolithic base snapshot plus a 3-shard fleet with journals, and serves
// every shard over HTTP with ingestion enabled.
func ingestFixture(t *testing.T) (*corpus.Dataset, []core.ReviewData, *snapshot.Manifest) {
	t.Helper()
	ingestOnce.Do(func() { ingestErr = buildIngestFleet() })
	if ingestErr != nil {
		t.Fatalf("ingest fixture: %v", ingestErr)
	}
	m, err := snapshot.LoadManifest(ingestManifest)
	if err != nil {
		t.Fatalf("ingest fixture manifest: %v", err)
	}
	return ingestData, ingestDeltaRvs, m
}

func buildIngestFleet() error {
	genCfg := corpus.SmallConfig()
	genCfg.Seed = 1
	ingestData = corpus.GenerateHotels(genCfg)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	in := harness.BuildInputFromDataset(ingestData, 400, 300, rng)
	split := len(in.Reviews) - ingestDeltas
	ingestDeltaRvs = append([]core.ReviewData(nil), in.Reviews[split:]...)
	in.Reviews = in.Reviews[:split]
	base, err := core.Build(in, cfg)
	if err != nil {
		return fmt.Errorf("base build: %w", err)
	}

	dir, err := os.MkdirTemp("", "router-ingest-*")
	if err != nil {
		return err
	}
	// The dir outlives the fixture deliberately (shared by the package
	// run); the OS temp cleaner reclaims it.
	ingestBaseSnap = filepath.Join(dir, "hotel-base.snap")
	if _, err := snapshot.Save(ingestBaseSnap, base); err != nil {
		return err
	}

	shardDBs, parts, err := base.Shards(ingestShards)
	if err != nil {
		return err
	}
	manifest := &snapshot.Manifest{
		FormatVersion: snapshot.FormatVersion,
		Name:          base.Name,
		BuildSeed:     1,
		Shards:        ingestShards,
		TotalEntities: len(base.EntityIDs()),
		CreatedUnix:   1,
	}
	for i, sdb := range shardDBs {
		ids := parts[i]
		path := filepath.Join(dir, fmt.Sprintf("hotel-shard%d.snap", i))
		meta, err := snapshot.SaveShard(path, sdb, &snapshot.ShardMeta{
			Index: i, Count: ingestShards,
			Entities: len(ids), TotalEntities: len(base.EntityIDs()),
			FirstEntity: ids[0], LastEntity: ids[len(ids)-1],
		})
		if err != nil {
			return fmt.Errorf("shard %d save: %w", i, err)
		}
		manifest.Shard = append(manifest.Shard, snapshot.ManifestShard{
			Index: i, Path: filepath.Base(path),
			Entities: len(ids), FirstEntity: ids[0], LastEntity: ids[len(ids)-1],
			SnapshotSHA256: meta.SHA256, SnapshotBytes: meta.FileBytes,
		})
	}
	ingestManifest = filepath.Join(dir, "hotel.manifest.json")
	if err := snapshot.WriteManifest(ingestManifest, manifest); err != nil {
		return err
	}

	for i := range manifest.Shard {
		srv, err := serveShardWithJournal(i)
		if err != nil {
			return err
		}
		ingestURLs = append(ingestURLs, srv.URL)
	}
	return nil
}

// serveShardWithJournal is the opinedbd shard role in miniature: load the
// digest-verified shard, replay its journal, serve with append-then-apply
// ingestion.
func serveShardWithJournal(index int) (*httptest.Server, error) {
	m, err := snapshot.LoadManifest(ingestManifest)
	if err != nil {
		return nil, err
	}
	db, _, err := snapshot.LoadVerifiedShard(ingestManifest, m, index)
	if err != nil {
		return nil, fmt.Errorf("shard %d load: %w", index, err)
	}
	jdir := journal.Dir(snapshot.ShardPath(ingestManifest, m.Shard[index]))
	j, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		return nil, err
	}
	ingestJournals = append(ingestJournals, j)
	if _, err := journal.ApplyAll(db, jdir); err != nil {
		return nil, fmt.Errorf("shard %d replay: %w", index, err)
	}
	return httptest.NewServer(server.New(db, server.Options{
		Ingest: &server.IngestOptions{
			AcceptUnowned: true,
			Append: func(rv core.ReviewData) (uint64, error) {
				return j.Append(journal.Review{
					ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
				})
			},
		},
	})), nil
}

// dirExists reports whether path exists as a directory.
func dirExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// ingestRouter assembles a router (and front handler) over the fixture's
// shard servers.
func ingestRouter(t *testing.T, m *snapshot.Manifest) (*router.Router, *httptest.Server) {
	t.Helper()
	shards := make([]router.Shard, len(ingestURLs))
	for i, u := range ingestURLs {
		shards[i] = router.Shard{
			Backend:     &router.HTTPBackend{BaseURL: u},
			FirstEntity: m.Shard[i].FirstEntity,
			LastEntity:  m.Shard[i].LastEntity,
		}
	}
	rt, err := router.New(shards, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router.NewHandler(rt))
	t.Cleanup(front.Close)
	return rt, front
}

// TestShardedIngestion runs the whole lifecycle in order: route writes,
// verify fleet-vs-monolith identity, restart from snapshot+journal,
// verify again, then the write-path error contract.
func TestShardedIngestion(t *testing.T) {
	d, deltas, m := ingestFixture(t)
	rt, front := ingestRouter(t, m)

	ownerOf := func(id string) int {
		for i := range m.Shard {
			if id >= m.Shard[i].FirstEntity && id <= m.Shard[i].LastEntity {
				return i
			}
		}
		return -1
	}

	t.Run("route writes", func(t *testing.T) {
		for _, rv := range deltas {
			body, _ := json.Marshal(server.ReviewRequest{
				ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text,
			})
			resp, err := http.Post(front.URL+"/reviews", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var ack router.ReviewResult
			decErr := json.NewDecoder(resp.Body).Decode(&ack)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || decErr != nil {
				t.Fatalf("write %s: status %d (%v)", rv.ID, resp.StatusCode, decErr)
			}
			if !ack.Owned || ack.OwnerShard != ownerOf(rv.EntityID) {
				t.Fatalf("write %s: owner %d owned=%v, manifest says %d", rv.ID, ack.OwnerShard, ack.Owned, ownerOf(rv.EntityID))
			}
			if ack.Replicated != ingestShards-1 || ack.Partial {
				t.Fatalf("write %s: replicated %d partial=%v", rv.ID, ack.Replicated, ack.Partial)
			}
		}
	})

	// The monolith that ingested the same deltas in the same order.
	reference, _, err := snapshot.Load(ingestBaseSnap)
	if err != nil {
		t.Fatal(err)
	}
	for _, rv := range deltas {
		if err := reference.ApplyReview(rv); err != nil {
			t.Fatal(err)
		}
	}
	wantFP, n := harness.QueryFingerprint(d, reference)
	if n != 948 {
		t.Errorf("fingerprint covers %d query-set entries, want the full 948", n)
	}

	t.Run("fleet answers like the monolith", func(t *testing.T) {
		gotFP, _ := harness.QueryFingerprint(d, rt.Engine(context.Background()))
		if gotFP != wantFP {
			t.Fatal("ingesting fleet diverges from the monolith over the union corpus")
		}
	})

	t.Run("restart from snapshot+journal", func(t *testing.T) {
		// Note the shard snapshots on disk still carry only the base build
		// — their manifest digests stay valid — and the journals alone
		// carry the enrichment.
		shards := make([]router.Shard, ingestShards)
		for i := range shards {
			db, _, err := snapshot.LoadVerifiedShard(ingestManifest, m, i)
			if err != nil {
				t.Fatalf("shard %d reload: %v", i, err)
			}
			jdir := journal.Dir(snapshot.ShardPath(ingestManifest, m.Shard[i]))
			st, err := journal.ApplyAll(db, jdir)
			if err != nil {
				t.Fatalf("shard %d replay: %v", i, err)
			}
			if st.Applied != len(deltas) {
				t.Fatalf("shard %d replayed %d deltas, want %d (every shard journals every write)", i, st.Applied, len(deltas))
			}
			shards[i] = router.Shard{
				Backend:     router.NewLocalBackend(fmt.Sprintf("reloaded%d", i), db, server.Options{}),
				FirstEntity: m.Shard[i].FirstEntity,
				LastEntity:  m.Shard[i].LastEntity,
			}
		}
		reloaded, err := router.New(shards, router.Options{})
		if err != nil {
			t.Fatal(err)
		}
		gotFP, _ := harness.QueryFingerprint(d, reloaded.Engine(context.Background()))
		if gotFP != wantFP {
			t.Fatal("restarted fleet diverges from the monolith")
		}
	})

	t.Run("write errors", func(t *testing.T) {
		post := func(t *testing.T, req server.ReviewRequest) (int, []byte) {
			t.Helper()
			body, _ := json.Marshal(req)
			resp, err := http.Post(front.URL+"/reviews", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			return resp.StatusCode, buf.Bytes()
		}
		// Duplicate: the owner rejects, nothing mutates.
		if status, _ := post(t, server.ReviewRequest{
			ID: deltas[0].ID, EntityID: deltas[0].EntityID, Text: deltas[0].Text,
		}); status != http.StatusConflict {
			t.Errorf("duplicate: status %d, want 409", status)
		}
		// Ghost entity inside a shard's range: the range owner vetoes it
		// before any shard mutates (the replica flag is router-internal).
		ghost := m.Shard[1].FirstEntity + "0"
		if ownerOf(ghost) != 1 {
			t.Fatalf("test ghost %q not inside shard 1's range", ghost)
		}
		if status, body := post(t, server.ReviewRequest{ID: "ghost-1", EntityID: ghost, Text: "nice room"}); status != http.StatusNotFound {
			t.Errorf("in-range ghost: status %d (%s), want 404", status, body)
		}
		// Entity beyond every range: rejected by the router itself.
		if status, _ := post(t, server.ReviewRequest{ID: "ghost-2", EntityID: "zzzz-beyond", Text: "nice room"}); status != http.StatusNotFound {
			t.Errorf("out-of-range ghost: status %d, want 404", status)
		}
		// No journal grew: every shard still holds exactly the real deltas.
		for i := range m.Shard {
			jdir := journal.Dir(snapshot.ShardPath(ingestManifest, m.Shard[i]))
			stats, err := journal.Replay(jdir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Records != len(deltas) {
				t.Errorf("shard %d journal has %d records after rejected writes, want %d", i, stats.Records, len(deltas))
			}
		}
	})

	t.Run("compact fleet and refresh digests", func(t *testing.T) {
		// Compaction refuses to run under a live journal writer (it holds
		// the same directory lock a serving Journal does) — prove that,
		// then stop the fleet's journals as an operator would.
		if runtime.GOOS == "linux" || runtime.GOOS == "darwin" {
			if _, _, err := journal.CompactManifest(ingestManifest); err == nil {
				t.Fatal("compaction should refuse while the fleet holds its journals")
			}
		}
		for _, j := range ingestJournals {
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
		m2, folded, err := journal.CompactManifest(ingestManifest)
		if err != nil {
			t.Fatal(err)
		}
		if len(folded) != ingestShards {
			t.Fatalf("compacted %d shards, want %d", len(folded), ingestShards)
		}
		for _, s := range folded {
			if s.Applied != len(deltas) {
				t.Errorf("shard %d folded %d deltas, want %d", s.Index, s.Applied, len(deltas))
			}
			if s.Digest != m2.Shard[s.Index].SnapshotSHA256 {
				t.Errorf("shard %d manifest digest not refreshed", s.Index)
			}
			if jdir := journal.Dir(snapshot.ShardPath(ingestManifest, m2.Shard[s.Index])); dirExists(jdir) {
				t.Errorf("shard %d journal survived compaction", s.Index)
			}
		}
		// The refreshed manifest verifies and the compacted fleet still
		// answers exactly like the enriched monolith — now with empty
		// journals.
		shards := make([]router.Shard, ingestShards)
		for i := range shards {
			db, _, err := snapshot.LoadVerifiedShard(ingestManifest, m2, i)
			if err != nil {
				t.Fatalf("shard %d load after compaction: %v", i, err)
			}
			shards[i] = router.Shard{
				Backend:     router.NewLocalBackend(fmt.Sprintf("compacted%d", i), db, server.Options{}),
				FirstEntity: m2.Shard[i].FirstEntity,
				LastEntity:  m2.Shard[i].LastEntity,
			}
		}
		compacted, err := router.New(shards, router.Options{})
		if err != nil {
			t.Fatal(err)
		}
		gotFP, _ := harness.QueryFingerprint(d, compacted.Engine(context.Background()))
		if gotFP != wantFP {
			t.Fatal("compacted fleet diverges from the monolith")
		}
	})

	t.Run("partial replication is reported", func(t *testing.T) {
		// A throwaway in-memory fleet (volatile ingestion, fresh loads of
		// the compacted snapshots) with one replica pointed at a dead
		// server: the owner still commits, the dead replica is named, and
		// nothing durable is contaminated.
		rv := deltas[0]
		owner := ownerOf(rv.EntityID)
		deadIdx := (owner + 1) % ingestShards
		deadSrv := httptest.NewServer(http.NotFoundHandler())
		deadURL := deadSrv.URL
		deadSrv.Close()
		m2, err := snapshot.LoadManifest(ingestManifest)
		if err != nil {
			t.Fatal(err)
		}
		shards := make([]router.Shard, ingestShards)
		for i := range shards {
			if i == deadIdx {
				shards[i] = router.Shard{Backend: &router.HTTPBackend{BaseURL: deadURL},
					FirstEntity: m2.Shard[i].FirstEntity, LastEntity: m2.Shard[i].LastEntity}
				continue
			}
			db, _, err := snapshot.LoadVerifiedShard(ingestManifest, m2, i)
			if err != nil {
				t.Fatal(err)
			}
			shards[i] = router.Shard{
				Backend: router.NewLocalBackend(fmt.Sprintf("volatile%d", i), db, server.Options{
					Ingest: &server.IngestOptions{AcceptUnowned: true},
				}),
				FirstEntity: m2.Shard[i].FirstEntity,
				LastEntity:  m2.Shard[i].LastEntity,
			}
		}
		rt2, err := router.New(shards, router.Options{})
		if err != nil {
			t.Fatal(err)
		}
		front2 := httptest.NewServer(router.NewHandler(rt2))
		defer front2.Close()
		body, _ := json.Marshal(server.ReviewRequest{
			ID: "partial-1", EntityID: rv.EntityID, Reviewer: "p", Day: 1, Text: "The staff was friendly.",
		})
		resp, err := http.Post(front2.URL+"/reviews", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ack router.ReviewResult
		decErr := json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decErr != nil {
			t.Fatalf("partial write: status %d (%v)", resp.StatusCode, decErr)
		}
		if !ack.Partial || ack.Replicated != ingestShards-2 {
			t.Fatalf("partial write ack = %+v, want partial with %d replicas", ack, ingestShards-2)
		}
		if _, ok := ack.ShardErrors[deadIdx]; !ok {
			t.Fatalf("dead replica %d not reported: %+v", deadIdx, ack.ShardErrors)
		}
	})
}

package router_test

// End-to-end test of the sharded serving stack, exactly as a production
// fleet runs it: build a monolithic database → partition it into 4 shard
// databases → write per-shard snapshots + checksummed manifest → reload
// every shard from disk → serve each on its own httptest HTTP server →
// scatter-gather through the router — asserting the acceptance contract:
// the routed fleet answers byte-identically to the monolith over the full
// 948-entry harness query fingerprint, under the race detector, and
// degrades to correct partial results when a shard is down.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
)

const e2eShards = 4

// Shared fixture: one small hotel build, sharded onto disk once, with one
// live httptest server per reloaded shard.
var (
	e2eOnce     sync.Once
	e2eData     *corpus.Dataset
	e2eDB       *core.DB
	e2eManifest string // manifest path
	e2eURLs     []string
	e2eErr      error
)

func e2eFixture(t *testing.T) (*corpus.Dataset, *core.DB, *snapshot.Manifest, []string) {
	t.Helper()
	e2eOnce.Do(func() {
		e2eErr = buildE2EFleet()
	})
	if e2eErr != nil {
		t.Fatalf("e2e fixture: %v", e2eErr)
	}
	m, err := snapshot.LoadManifest(e2eManifest)
	if err != nil {
		t.Fatalf("e2e fixture manifest: %v", err)
	}
	return e2eData, e2eDB, m, e2eURLs
}

func buildE2EFleet() error {
	genCfg := corpus.SmallConfig()
	genCfg.Seed = 1
	e2eData = corpus.GenerateHotels(genCfg)
	cfg := core.DefaultConfig()
	cfg.Seed = 1
	var err error
	e2eDB, err = harness.BuildDB(e2eData, cfg, 400, 300)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}

	dir, err := os.MkdirTemp("", "router-e2e-*")
	if err != nil {
		return err
	}
	// The dir outlives the fixture deliberately (shared by all tests in
	// the package run); the OS temp cleaner reclaims it.
	shardDBs, parts, err := e2eDB.Shards(e2eShards)
	if err != nil {
		return err
	}
	manifest := &snapshot.Manifest{
		FormatVersion: snapshot.FormatVersion,
		Name:          e2eDB.Name,
		BuildSeed:     1,
		Shards:        e2eShards,
		TotalEntities: len(e2eDB.EntityIDs()),
		CreatedUnix:   1,
	}
	for i, sdb := range shardDBs {
		ids := parts[i]
		path := filepath.Join(dir, fmt.Sprintf("hotel-shard%d.snap", i))
		meta, err := snapshot.SaveShard(path, sdb, &snapshot.ShardMeta{
			Index: i, Count: e2eShards,
			Entities: len(ids), TotalEntities: len(e2eDB.EntityIDs()),
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
	e2eManifest = filepath.Join(dir, "hotel.manifest.json")
	if err := snapshot.WriteManifest(e2eManifest, manifest); err != nil {
		return err
	}

	// Reload every shard from disk (digest-verified, single read) and
	// serve it over real HTTP — the exact opinedbd -shard-manifest path.
	loaded, err := snapshot.LoadManifest(e2eManifest)
	if err != nil {
		return err
	}
	for _, ms := range loaded.Shard {
		sdb, _, err := snapshot.LoadVerifiedShard(e2eManifest, loaded, ms.Index)
		if err != nil {
			return fmt.Errorf("shard %d load: %w", ms.Index, err)
		}
		srv := httptest.NewServer(server.New(sdb, server.Options{}))
		e2eURLs = append(e2eURLs, srv.URL)
	}
	return nil
}

// fleetRouter assembles a router over the fixture's HTTP shard servers.
func fleetRouter(t *testing.T, m *snapshot.Manifest, urls []string) *router.Router {
	t.Helper()
	shards := make([]router.Shard, len(urls))
	for i, u := range urls {
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
	return rt
}

// TestShardedByteIdentity is the acceptance criterion: the 4-shard fleet,
// served from reloaded snapshots over real HTTP, answers the full harness
// query fingerprint byte-identically to the monolithic database.
func TestShardedByteIdentity(t *testing.T) {
	d, db, m, urls := e2eFixture(t)
	rt := fleetRouter(t, m, urls)

	monolithFP, n := harness.QueryFingerprint(d, db)
	routedFP, _ := harness.QueryFingerprint(d, rt.Engine(context.Background()))
	if n != 948 {
		t.Errorf("fingerprint covers %d query-set entries, want the full 948", n)
	}
	if monolithFP != routedFP {
		t.Fatalf("sharded fleet diverges from monolith over %d query-set entries:\n%s",
			n, firstDiff(monolithFP, routedFP))
	}
	t.Logf("4-shard fleet byte-identical to monolith over %d query-set entries", n)
}

// TestShardedConcurrentQueries drives the router from many goroutines
// under -race while comparing every answer against the monolith.
func TestShardedConcurrentQueries(t *testing.T) {
	d, db, m, urls := e2eFixture(t)
	rt := fleetRouter(t, m, urls)
	eng := rt.Engine(context.Background())
	var preds []string
	for _, p := range d.Predicates {
		if p.Kind != corpus.KindOutOfSchema {
			preds = append(preds, p.Text)
			if len(preds) == 12 {
				break
			}
		}
	}
	opts := core.DefaultQueryOptions()
	want := make([]string, len(preds))
	for i, p := range preds {
		res, err := db.RankPredicates([]string{p}, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderRows(res.Rows)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(preds); i++ {
				pi := (g + i) % len(preds)
				res, err := eng.RankPredicates([]string{preds[pi]}, nil, opts)
				if err != nil {
					errs <- err
					return
				}
				if got := renderRows(res.Rows); got != want[pi] {
					errs <- fmt.Errorf("concurrent routed result diverged for %q:\n got %s\nwant %s", preds[pi], got, want[pi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestOneShardDown kills one shard and asserts graceful degradation: the
// router still answers, marks the result partial, names the dead shard,
// and the rows are exactly the monolith's ranking restricted to the live
// shards' entity ranges (bit-identical scores).
func TestOneShardDown(t *testing.T) {
	d, db, m, urls := e2eFixture(t)

	// Shard 2's backend points at a server that is already gone.
	deadSrv := httptest.NewServer(http.NotFoundHandler())
	deadURL := deadSrv.URL
	deadSrv.Close()
	const dead = 2

	shards := make([]router.Shard, len(urls))
	for i, u := range urls {
		if i == dead {
			u = deadURL
		}
		shards[i] = router.Shard{Backend: &router.HTTPBackend{BaseURL: u},
			FirstEntity: m.Shard[i].FirstEntity, LastEntity: m.Shard[i].LastEntity}
	}
	rt, err := router.New(shards, router.Options{})
	if err != nil {
		t.Fatal(err)
	}

	var pred string
	for _, p := range d.Predicates {
		if p.Kind != corpus.KindOutOfSchema {
			pred = p.Text
			break
		}
	}
	res, err := rt.Query(context.Background(), `SELECT * FROM Entities WHERE "`+pred+`"`, 10)
	if err != nil {
		t.Fatalf("partial fleet should still answer: %v", err)
	}
	if !res.Partial {
		t.Error("result not marked partial")
	}
	if _, ok := res.ShardErrors[dead]; !ok {
		t.Errorf("dead shard not reported: %v", res.ShardErrors)
	}
	// Expected: the monolith's ranking with the dead shard's entity range
	// filtered out — exactly what a live 3-shard fleet merges to.
	inDead := func(id string) bool {
		return id >= m.Shard[dead].FirstEntity && id <= m.Shard[dead].LastEntity
	}
	opts := core.DefaultQueryOptions()
	wantRes, err := db.RankPredicates([]string{pred}, func(id string) bool { return !inDead(id) }, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := renderJSONRows(res.Rows)
	want := renderRows(wantRes.Rows)
	if got != want {
		t.Fatalf("partial rows diverge from monolith-minus-dead-shard:\n got %s\nwant %s", got, want)
	}

	// Health reports the degradation.
	ok, shardHealth := rt.Health(context.Background())
	if ok {
		t.Error("health should be degraded with a dead shard")
	}
	if shardHealth[dead].OK || shardHealth[dead].Error == "" {
		t.Errorf("dead shard health = %+v", shardHealth[dead])
	}
}

// TestRouterHTTPSurface exercises the router's own HTTP handler: merged
// query results, aggregate health, evidence pass-through, and the JSON
// error envelope.
func TestRouterHTTPSurface(t *testing.T) {
	d, db, m, urls := e2eFixture(t)
	rt := fleetRouter(t, m, urls)
	front := httptest.NewServer(router.NewHandler(rt))
	defer front.Close()

	var pred string
	for _, p := range d.Predicates {
		if p.Kind != corpus.KindOutOfSchema {
			pred = p.Text
			break
		}
	}

	t.Run("query", func(t *testing.T) {
		resp, err := http.Get(front.URL + "/query?sql=" + strings.ReplaceAll(`select * from Entities where "`+pred+`"`, " ", "+"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var qr router.QueryResult
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		wantRes, err := db.RankPredicates([]string{pred}, nil, core.DefaultQueryOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderJSONRows(qr.Rows), renderRows(wantRes.Rows); got != want {
			t.Fatalf("HTTP rows diverge:\n got %s\nwant %s", got, want)
		}
		if qr.Partial {
			t.Error("healthy fleet marked partial")
		}
	})

	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(front.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h router.RouterHealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		if h.Status != "ok" || h.Role != "router" || h.Shards != e2eShards {
			t.Errorf("health = %+v", h)
		}
		if h.Entities != len(db.EntityIDs()) {
			t.Errorf("fleet reports %d entities, want %d", h.Entities, len(db.EntityIDs()))
		}
	})

	t.Run("evidence", func(t *testing.T) {
		// Every (entity, attribute), default and unbounded limit: targeted
		// routing must reach the owner, whose partitioned extraction rows
		// must answer byte for byte like the monolith's.
		mono := httptest.NewServer(server.New(db, server.Options{}))
		defer mono.Close()
		get := func(base, target string) (int, []byte) {
			resp, err := http.Get(base + target)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, body
		}
		found := 0
		for _, id := range db.EntityIDs() {
			for _, a := range db.Attrs {
				for _, limit := range []string{"", "&limit=100000"} {
					target := "/evidence?entity=" + id + "&attribute=" + a.Name + limit
					code, body := get(front.URL, target)
					wantCode, wantBody := get(mono.URL, target)
					if code != wantCode || !bytes.Equal(body, wantBody) {
						t.Fatalf("%s: router %d %s, monolith %d %s", target, code, body, wantCode, wantBody)
					}
					if code == http.StatusOK {
						found++
					}
				}
			}
		}
		if found == 0 {
			t.Fatal("no (entity, attribute) has evidence; the comparison is vacuous")
		}
	})

	t.Run("limit", func(t *testing.T) {
		// An explicit SQL LIMIT must win over the request k on the router
		// exactly as it does on the engine (the monolith returns 3 rows
		// here no matter what k says).
		sql := `select * from Entities where "` + pred + `" limit 3`
		res, err := rt.Query(context.Background(), sql, 10)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := db.QueryWithOptions(sql, core.DefaultQueryOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(wantRes.Rows) != 3 {
			t.Fatalf("monolith returned %d rows for LIMIT 3", len(wantRes.Rows))
		}
		if got, want := renderJSONRows(res.Rows), renderRows(wantRes.Rows); got != want {
			t.Fatalf("LIMIT rows diverge:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("errors", func(t *testing.T) {
		for _, tc := range []struct {
			target string
			status int
		}{
			{"/query", http.StatusBadRequest},                                // missing sql
			{"/query?sql=select+*+from+E+order+by+x", http.StatusBadRequest}, // unmergeable
			{"/topk", http.StatusBadRequest},                                 // missing predicate
			{"/nope", http.StatusNotFound},
		} {
			resp, err := http.Get(front.URL + tc.target)
			if err != nil {
				t.Fatal(err)
			}
			var env struct {
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if resp.StatusCode != tc.status || err != nil || env.Error == "" {
				t.Errorf("GET %s: status %d (want %d), envelope error %q (decode err %v)",
					tc.target, resp.StatusCode, tc.status, env.Error, err)
			}
		}
	})
}

// renderRows serializes engine rows with exact float bits.
func renderRows(rows []core.ResultRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s=%x ", r.EntityID, r.Score)
	}
	return b.String()
}

// renderJSONRows serializes wire rows with exact float bits.
func renderJSONRows(rows []server.RowJSON) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s=%x ", r.EntityID, r.Score)
	}
	return b.String()
}

// firstDiff returns the first differing line of two multi-line strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  monolith: %s\n  routed:   %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d lines", len(al), len(bl))
}

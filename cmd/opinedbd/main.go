// Command opinedbd is the always-on OpineDB server. It runs in one of
// three roles:
//
//   - Monolith: -snapshot loads a snapshot artifact written by opinedbb
//     (mmap-or-read) and serves immediately; when the file does not exist
//     (or no -snapshot is given) it falls back to the in-process build.
//   - Shard replica: -shard-manifest + -shard-index load one shard of a
//     sharded build (digest-verified against the manifest) and serve just
//     that entity range.
//   - Router: -router loads a shard manifest and scatter-gathers the
//     query API over the fleet — remote replicas named by
//     -router-backends, or every shard loaded in process when the flag is
//     empty (single-binary sharded serving).
//
// Every role supports live incremental enrichment: POST /reviews appends
// the delta to a durable journal next to the served snapshot
// (-journal, default auto) and applies it under the server's writer
// lock. Load order is snapshot → journal replay → serve, and every
// acknowledged write was fsynced first, so a crash mid-ingest loses no
// acknowledged review and never serves corrupt state. `opinedbb
// -compact` folds a journal back into a fresh snapshot.
//
// The fleet control plane (internal/fleet) rides on the journal: every
// node reports its position (/journal/status, /healthz) and the router
// heals replicas that missed replicated writes — automatically after a
// partial write, on demand via POST /repair, and periodically with
// -repair-interval. `opinedbb -rebalance M -manifest f.manifest.json`
// re-partitions a stopped fleet to M shards without a rebuild.
//
// Examples:
//
//	opinedbb -domain hotel -o hotel.snap && opinedbd -snapshot hotel.snap
//	opinedbb -domain hotel -shards 4 -o hotel.snap
//	opinedbd -addr :8081 -shard-manifest hotel.manifest.json -shard-index 0
//	opinedbd -addr :8080 -router hotel.manifest.json -router-backends http://h1:8081,http://h2:8081,http://h3:8081,http://h4:8081
//	curl 'localhost:8080/query?sql=select+*+from+Hotels+where+"has+really+clean+rooms"&k=5'
//	curl 'localhost:8080/healthz'   # router mode aggregates per-shard health
//	curl -X POST localhost:8080/reviews -d '{"id":"r-new","entity":"h0012","reviewer":"ada","day":4200,"text":"The room was spotless."}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// metricsReg is the process-wide registry behind GET /metrics. All
// roles share it: in -router mode the front door and every in-process
// shard feed one registry, so a single scrape covers both tiers.
var metricsReg = obs.NewRegistry()

// tracer is the process-wide trace collector. Like the metrics
// registry, every role shares it: in -router mode the front door's
// spans and every in-process shard's spans land in one record per
// request, exactly as a distributed fleet's would after header
// propagation. Tail sampling keeps it cheap enough to leave on.
var tracer = trace.New(trace.Options{})

// fatal logs an error through the structured logger and exits — the
// slog-era replacement for log.Fatalf.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	snapPath := flag.String("snapshot", "", "snapshot artifact to serve (written by opinedbb); falls back to an in-process build when the file does not exist")
	journalMode := flag.String("journal", "auto", "review journal for live ingestion: 'auto' opens <snapshot>.journal next to the served artifact (replayed on load), 'off' serves read-only, any other value is an explicit journal directory")
	writeQueueDepth := flag.Int("write-queue-depth", 0, "bound on the group-commit staging queue; writes arriving at a full queue get 503 + Retry-After (0 = default)")
	shardManifest := flag.String("shard-manifest", "", "shard manifest (written by opinedbb -shards); serve the single shard selected by -shard-index")
	shardIndex := flag.Int("shard-index", -1, "which shard of -shard-manifest to serve")
	shardReplica := flag.Int("shard-replica", 0, "which replica of the shard this process is (>0 suffixes the auto journal directory so co-located replicas do not share a journal)")
	routerManifest := flag.String("router", "", "shard manifest; act as the scatter-gather router over the fleet")
	routerBackends := flag.String("router-backends", "", "comma-separated shard base URLs for -router, ordered by shard index; within a shard, separate replica URLs with '|' (http://a:8081|http://a2:8081). Empty loads every shard in process")
	replicas := flag.String("replicas", "", `router role, in-process fleet: replica-set shape override — "3" serves every range with 3 replicas, "0=3,1=1" per-range pairs (unlisted ranges default to 1); "" follows the manifest`)
	noHedge := flag.Bool("no-hedge", false, "router role: disable hedged scatter legs (load balancing across replicas stays on)")
	hedgeDelay := flag.Duration("hedge-delay", 0, "router role: fixed hedge delay (0 = adapt to each shard's scatter p95)")
	repairEvery := flag.Duration("repair-interval", 0, "router role: run a fleet-wide anti-entropy write-repair pass on this interval (0 disables; POST /repair triggers one on demand, and partial writes always heal automatically)")
	domain := flag.String("domain", "hotel", "corpus domain for the in-process build: hotel or restaurant")
	seed := flag.Int64("seed", 1, "corpus and build seed (in-process build)")
	small := flag.Bool("small", false, "build a small corpus (faster startup; in-process build)")
	workers := flag.Int("workers", 0, "build worker pool size (0 = GOMAXPROCS; in-process build)")
	subindex := flag.Bool("subindex", true, "build the Appendix B substitution index (in-process build; match opinedbb's flag so a fallen-back replica serves identically to its snapshot-loaded peers)")
	tagged := flag.Int("tagged", 800, "gold sentences for extractor training (in-process build; match opinedbb's flag)")
	labels := flag.Int("labels", 800, "membership-function training labels (in-process build; match opinedbb's flag)")
	topK := flag.Int("k", 10, "default result size")
	debugAddr := flag.String("debug-addr", "", "serve the debug surface (net/http/pprof under /debug/pprof/, traces under /debug/traces) on this extra address; empty disables (the main mux always serves /debug/traces)")
	flag.Parse()

	if *debugAddr != "" {
		go func() {
			slog.Info("debug surface listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, trace.DebugMux(tracer)); err != nil {
				slog.Error("debug surface failed", "addr", *debugAddr, "err", err)
			}
		}()
	}

	var handler http.Handler
	switch {
	case *routerManifest != "":
		handler = routerHandler(*routerManifest, *routerBackends, *topK, *journalMode, *writeQueueDepth, *repairEvery, *replicas, *noHedge, *hedgeDelay)
	case *shardManifest != "":
		handler = shardHandler(*shardManifest, *shardIndex, *shardReplica, *topK, *journalMode, *writeQueueDepth)
	default:
		handler = monolithHandler(*snapPath, *domain, *small, *seed, *workers, *tagged, *labels, *subindex, *topK, *journalMode, *writeQueueDepth)
	}
	serve(*addr, handler)
}

// journalDir resolves the -journal flag against the served artifact:
// "auto" puts the journal next to the snapshot ("<artifact>.journal"),
// "off" disables it, anything else is an explicit directory.
func journalDir(mode, artifactPath string) string {
	switch mode {
	case "off":
		return ""
	case "auto":
		if artifactPath == "" {
			return ""
		}
		return journal.Dir(artifactPath)
	default:
		return mode
	}
}

// attachJournal is the serving side of the snapshot+journal lifecycle:
// open the journal (crash recovery truncates a torn tail), replay every
// surviving delta into the freshly loaded database, and return ingest
// options that feed the same journal — so load order is always
// snapshot → replay → serve. An empty dir enables volatile (unjournaled)
// ingestion. queueDepth is -write-queue-depth.
func attachJournal(db *core.DB, dir string, queueDepth int, acceptUnowned bool) *server.IngestOptions {
	if dir == "" {
		slog.Warn("ingestion enabled without a journal; reviews ingested live will NOT survive a restart")
		return &server.IngestOptions{AcceptUnowned: acceptUnowned, MaxQueueDepth: queueDepth}
	}
	j, err := journal.Open(dir, journal.Options{
		SyncEvery:    1, // an ack means fsynced
		SyncObserver: server.FsyncObserver(metricsReg),
	})
	if err != nil {
		fatal("journal open failed", "dir", dir, "err", err)
	}
	if rec := j.Recovery(); rec.Err != nil {
		slog.Warn("journal crash recovery dropped a torn tail", "dir", dir, "dropped_bytes", rec.DroppedBytes, "err", rec.Err)
	}
	st, err := journal.ApplyAll(db, dir)
	if err != nil {
		fatal("journal replay failed", "dir", dir, "err", err)
	}
	if st.Records > 0 {
		slog.Info("journal replayed", "dir", dir, "records", st.Records,
			"last_seq", st.LastSeq, "applied", st.Applied, "already_present", st.Skipped)
	}
	ingest := server.JournaledIngest(j)
	ingest.AcceptUnowned = acceptUnowned
	ingest.MaxQueueDepth = queueDepth
	return ingest
}

// monolithHandler is the original single-database role: load a snapshot
// or build in process.
func monolithHandler(snapPath, domain string, small bool, seed int64, workers, tagged, labels int, subindex bool, topK int, journalMode string, queueDepth int) http.Handler {
	var (
		db       *core.DB
		snapInfo *server.SnapshotInfo
	)
	if snapPath != "" {
		loaded, meta, err := snapshot.Load(snapPath)
		switch {
		case err == nil:
			if meta.Shard != nil {
				// A shard artifact silently serving as "the database" would
				// answer with a fraction of the entity space.
				fatal("snapshot is one shard of a sharded build; serve it with -shard-manifest/-shard-index",
					"path", snapPath, "shard", meta.Shard.Index, "shards", meta.Shard.Count)
			}
			db = loaded
			snapInfo = snapshotInfo(snapPath, meta)
			slog.Info("loaded snapshot", "path", snapPath, "name", meta.Name,
				"entities", meta.Entities, "reviews", meta.Reviews, "extractions", meta.Extractions,
				"seed", meta.BuildSeed, "load_ms", snapInfo.LoadMillis)
		case errors.Is(err, fs.ErrNotExist):
			slog.Warn("snapshot not found; falling back to in-process build", "path", snapPath)
		default:
			// A present-but-unusable artifact is an operator problem;
			// silently rebuilding would mask it across a fleet.
			fatal("snapshot load failed", "path", snapPath, "err", err)
		}
	}

	if db == nil {
		// Build through the same helper as opinedbb with matching flags, so
		// a replica that fell back serves the same database its peers
		// loaded from a snapshot of the same domain/size/seed.
		slog.Info("generating corpus and building subjective database", "domain", domain)
		start := time.Now()
		d, built, err := harness.BuildDomain(domain, small, seed, workers, tagged, labels, subindex)
		if err != nil {
			fatal("build failed", "err", err)
		}
		db = built
		slog.Info("build ready", "entities", len(d.Entities), "reviews", len(d.Reviews),
			"extractions", len(db.Extractions), "attrs", len(db.Attrs),
			"seconds", time.Since(start).Seconds())
	}

	// Load order: snapshot → journal replay → serve. The journal lives
	// next to the snapshot even when the replica fell back to an
	// in-process build, so a fleet's ingestion layout is uniform.
	ingest := attachJournal(db, journalDir(journalMode, snapPath), queueDepth, false)
	return server.New(db, server.Options{
		DefaultTopK: topK,
		EntityName:  entityNamer(db),
		Snapshot:    snapInfo,
		Ingest:      ingest,
		Metrics:     metricsReg,
		Trace:       tracer,
	})
}

// shardHandler serves one digest-verified shard of a sharded build.
// replica > 0 marks this process as the range's Nth replica: it serves
// the same artifact but keeps its own journal chain.
func shardHandler(manifestPath string, index, replica, topK int, journalMode string, queueDepth int) http.Handler {
	m, err := snapshot.LoadManifest(manifestPath)
	if err != nil {
		fatal("shard manifest load failed", "path", manifestPath, "err", err)
	}
	db, meta, err := snapshot.LoadVerifiedShard(manifestPath, m, index)
	if err != nil {
		fatal("shard load failed", "shard", index, "path", manifestPath, "err", err)
	}
	shardPath := snapshot.ShardPath(manifestPath, m.Shard[index])
	info := snapshotInfo(shardPath, meta)
	slog.Info("serving shard", "shard", index, "shards", m.Shards, "replica", replica,
		"name", m.Name, "entities", meta.Shard.Entities,
		"first_entity", meta.Shard.FirstEntity, "last_entity", meta.Shard.LastEntity,
		"load_ms", info.LoadMillis)
	// AcceptUnowned: a shard journals and absorbs replicated writes for
	// entities other shards own (corpus-global state must not drift).
	ingest := attachJournal(db, replicaJournalDir(journalDir(journalMode, shardPath), replica), queueDepth, true)
	return server.New(db, server.Options{
		DefaultTopK: topK,
		EntityName:  entityNamer(db),
		Snapshot:    info,
		Ingest:      ingest,
		Metrics:     metricsReg,
		Trace:       tracer,
	})
}

// replicaJournalDir suffixes a journal directory for replicas past the
// first, so co-located replicas of one shard never share a chain (the
// journal's directory lock would refuse the second opener).
func replicaJournalDir(dir string, replica int) string {
	if dir == "" || replica <= 0 {
		return dir
	}
	return fmt.Sprintf("%s-r%d", dir, replica)
}

// routerHandler assembles the scatter-gather router: remote backends when
// -router-backends is given, otherwise every shard loaded in process
// (a non-empty -replicas spec overrides the manifest's replica shape
// there).
// repairEvery > 0 starts a background anti-entropy loop over the fleet.
func routerHandler(manifestPath, backendList string, topK int, journalMode string, queueDepth int, repairEvery time.Duration, replicas string, noHedge bool, hedgeDelay time.Duration) http.Handler {
	opts := router.Options{
		DefaultTopK:    topK,
		Metrics:        metricsReg,
		Trace:          tracer,
		DisableHedging: noHedge,
		HedgeDelay:     hedgeDelay,
	}
	if backendList == "" {
		pm, err := snapshot.LoadManifest(manifestPath)
		if err != nil {
			fatal("router manifest load failed", "path", manifestPath, "err", err)
		}
		perRange, uniform, err := snapshot.ParseReplicaSpec(replicas, pm.Shards)
		if err != nil {
			fatal("router -replicas spec invalid", "spec", replicas, "err", err)
		}
		rt, m, err := router.FromManifest(manifestPath, router.ManifestOptions{
			Options:          opts,
			Replicas:         uniform,
			ReplicasPerRange: perRange,
			ShardServer: func(shard, replica int, path string, db *core.DB, meta *snapshot.Meta) server.Options {
				// Each in-process node needs its own journal chain: with an
				// explicit -journal dir, derive a per-shard subdirectory (a
				// shared chain would interleave two writers' sequences; the
				// journal's directory lock refuses it outright), and replicas
				// past the first get a -rN suffix either way.
				dir := journalDir(journalMode, path)
				if journalMode != "auto" && journalMode != "off" {
					dir = filepath.Join(journalMode, fmt.Sprintf("shard-%d", shard))
				}
				return server.Options{
					DefaultTopK: topK,
					EntityName:  entityNamer(db),
					Snapshot:    snapshotInfo(path, meta),
					Ingest:      attachJournal(db, replicaJournalDir(dir, replica), queueDepth, true),
					Metrics:     metricsReg,
					Trace:       tracer,
				}
			},
		})
		if err != nil {
			fatal("router assembly failed", "err", err)
		}
		slog.Info("routing over in-process shards", "name", m.Name, "shards", m.Shards, "nodes", rt.NumNodes())
		startRepairLoop(rt, repairEvery)
		return router.NewHandler(rt)
	}
	m, err := snapshot.LoadManifest(manifestPath)
	if err != nil {
		fatal("router manifest load failed", "path", manifestPath, "err", err)
	}
	groups := strings.Split(backendList, ",")
	if len(groups) != m.Shards {
		fatal("router-backends shard count mismatch", "backends", len(groups), "path", manifestPath, "shards", m.Shards)
	}
	var shards []router.Shard
	for i, g := range groups {
		sh := router.Shard{
			FirstEntity: m.Shard[i].FirstEntity,
			LastEntity:  m.Shard[i].LastEntity,
		}
		// "url|url|url": the shard's replica set, any length ≥ 1 — a fleet
		// need not replicate every range equally.
		for j, u := range strings.Split(g, "|") {
			u = strings.TrimSpace(u)
			if u == "" {
				fatal("router-backends has an empty replica URL", "shard", i)
			}
			b := &router.HTTPBackend{BaseURL: u}
			if j == 0 {
				sh.Backend = b
			} else {
				sh.Replicas = append(sh.Replicas, b)
			}
		}
		shards = append(shards, sh)
	}
	rt, err := router.New(shards, opts)
	if err != nil {
		fatal("router assembly failed", "err", err)
	}
	// A misordered backend list misroutes /evidence silently; refuse to
	// start if any reachable backend reports the wrong shard identity.
	// (Unreachable backends are allowed — replicas may still be starting.)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.VerifyShardIdentities(ctx); err != nil {
		fatal("shard identity verification failed", "err", err)
	}
	slog.Info("routing over remote shards", "name", m.Name, "shards", m.Shards, "nodes", rt.NumNodes())
	startRepairLoop(rt, repairEvery)
	return router.NewHandler(rt)
}

// startRepairLoop runs periodic fleet-wide anti-entropy passes: diff
// journal positions across the shards, backfill laggards through the
// replica-write path, log what converged. Partial writes already heal
// inline; the loop catches replicas that come back between writes.
func startRepairLoop(rt *router.Router, every time.Duration) {
	if every <= 0 {
		return
	}
	go func() {
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for range ticker.C {
			ctx, cancel := context.WithTimeout(context.Background(), every)
			report, err := rt.RunRepair(ctx)
			cancel()
			switch {
			case err != nil:
				slog.Warn("repair pass failed", "err", err)
			case report.InSync:
				// Quiet when healthy.
			default:
				for _, n := range report.Nodes {
					if n.Backfilled > 0 || n.ReverseBackfilled > 0 || n.Err != "" {
						slog.Info("repair backfilled a node", "node", n.Index, "name", n.Name,
							"backfilled", n.Backfilled, "seq_before", n.Before, "seq_after", n.After,
							"reverse", n.ReverseBackfilled, "full_sync", n.FullSync, "err", n.Err)
					}
				}
			}
		}
	}()
}

// snapshotInfo converts load metadata to the /healthz report.
func snapshotInfo(path string, meta *snapshot.Meta) *server.SnapshotInfo {
	info := &server.SnapshotInfo{
		Path:          path,
		FormatVersion: meta.FormatVersion,
		BuildSeed:     meta.BuildSeed,
		Entities:      meta.Entities,
		Reviews:       meta.Reviews,
		Extractions:   meta.Extractions,
		FileBytes:     meta.FileBytes,
		LoadMillis:    float64(meta.LoadDuration.Microseconds()) / 1000,
	}
	if meta.Shard != nil {
		info.Entities = meta.Shard.Entities
		info.Shard = &server.ShardInfo{
			Index:         meta.Shard.Index,
			Count:         meta.Shard.Count,
			Entities:      meta.Shard.Entities,
			TotalEntities: meta.Shard.TotalEntities,
			FirstEntity:   meta.Shard.FirstEntity,
			LastEntity:    meta.Shard.LastEntity,
		}
	}
	return info
}

// serve runs the HTTP server until interrupted.
func serve(addr string, handler http.Handler) {
	httpSrv := &http.Server{Addr: addr, Handler: logRequests(handler)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	slog.Info("serving", "addr", addr)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("serve failed", "err", err)
	}
	slog.Info("shut down")
}

// entityNamer resolves display names from the Entities relation's "name"
// column, which works identically whether the database was built in
// process or loaded from a snapshot.
func entityNamer(db *core.DB) func(id string) string {
	return func(id string) string {
		v, err := db.ObjectiveValue(id, "name")
		if err != nil {
			return ""
		}
		if name, ok := v.(string); ok {
			return name
		}
		return ""
	}
}

// logRequests is a minimal access-log middleware. Requests that arrive
// with a propagated trace id (a router's scatter legs, or a traced
// client) log it, so one slow request correlates from access log to
// /debug/traces in a single grep.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		args := []any{"method", r.Method, "uri", r.URL.RequestURI(),
			"ms", float64(time.Since(start).Microseconds()) / 1000}
		if id := r.Header.Get(trace.TraceHeader); id != "" {
			args = append(args, "trace", id)
		}
		slog.Info("request", args...)
	})
}

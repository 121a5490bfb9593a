package main

// The fleet under test: four journaled single-replica shards behind
// router.FromManifest, the `opinedbd -router` shape, with the router's
// handler on a loopback listener. Flush policy everywhere: group commit
// on, SyncEvery 1, every ack durable.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// node is one shard server of the fleet.
type node struct {
	db      *core.DB
	journal *journal.Journal
	dir     string // journal directory
	backend router.Backend
	// What reopening this node cost.
	load     time.Duration
	replay   time.Duration
	replayed int
}

type fleet struct {
	manifestPath string
	manifest     *snapshot.Manifest
	reg          *obs.Registry
	rt           *router.Router
	handler      http.Handler
	nodes        [shardCount]*node
	// url is the router's loopback front door; servers holds every
	// listener the fleet started.
	url     string
	servers []*http.Server
}

// entityNamer resolves display names from the Entities relation, as
// opinedbd does for every serving role.
func entityNamer(db *core.DB) func(string) string {
	return func(id string) string {
		v, err := db.ObjectiveValue(id, "name")
		if err != nil {
			return ""
		}
		name, _ := v.(string)
		return name
	}
}

// openFleet loads the fleet written under dir — snapshot, then journal
// replay, per node — and assembles the router over it. tr, when non-nil,
// installs the bench's span wrappers at the backend and journal seams.
func openFleet(dir string, tr *tracer) (*fleet, error) {
	f := &fleet{manifestPath: filepath.Join(dir, fleetBase+".manifest.json"), reg: obs.NewRegistry()}
	var hookErr error
	opts := router.ManifestOptions{
		Options: router.Options{Metrics: f.reg},
		ShardServer: func(shard, _ int, path string, db *core.DB, meta *snapshot.Meta) server.Options {
			n, ingest, err := openNode(f.reg, shard, path, db, tr)
			if err != nil {
				hookErr = errors.Join(hookErr, fmt.Errorf("shard %d: %w", shard, err))
				return server.Options{}
			}
			n.load = meta.LoadDuration
			f.nodes[shard] = n
			return server.Options{EntityName: entityNamer(db), Ingest: ingest, Metrics: f.reg}
		},
		WrapBackend: func(shard, _ int, b router.Backend) router.Backend {
			if tr != nil {
				b = &legBackend{Backend: b, node: shard, t: tr}
			}
			if f.nodes[shard] != nil {
				f.nodes[shard].backend = b
			}
			return b
		},
	}
	rt, m, err := router.FromManifest(f.manifestPath, opts)
	if err == nil {
		err = hookErr
	}
	if err != nil {
		f.close()
		return nil, fmt.Errorf("open fleet: %w", err)
	}
	f.rt, f.manifest, f.handler = rt, m, router.NewHandler(rt)
	return f, nil
}

// openNode opens the shard's journal next to its snapshot, replays it
// into db and returns the ingest options that append to it.
func openNode(reg *obs.Registry, shard int, snapPath string, db *core.DB, tr *tracer) (*node, *server.IngestOptions, error) {
	n := &node{db: db, dir: journal.Dir(snapPath)}
	observe := server.FsyncObserver(reg)
	j, err := journal.Open(n.dir, journal.Options{SyncEvery: 1, SyncObserver: func(d time.Duration) {
		observe(d)
		if tr != nil {
			tr.fsync(shard, d)
		}
	}})
	if err != nil {
		return nil, nil, err
	}
	n.journal = j
	t0 := time.Now()
	st, err := journal.ApplyAll(db, n.dir)
	if err != nil {
		j.Close()
		return nil, nil, err
	}
	n.replay, n.replayed = time.Since(t0), st.Records

	toJournal := func(rv core.ReviewData) journal.Review {
		return journal.Review{ID: rv.ID, EntityID: rv.EntityID, Reviewer: rv.Reviewer, Day: rv.Day, Text: rv.Text}
	}
	appendBatch := func(rvs []core.ReviewData) (uint64, error) {
		batch := make([]journal.Review, len(rvs))
		for i, rv := range rvs {
			batch[i] = toJournal(rv)
		}
		return j.AppendBatch(batch)
	}
	ingest := &server.IngestOptions{
		AcceptUnowned:  true,
		JournalDir:     n.dir,
		JournalLastSeq: j.NextSeq() - 1,
		AppendDurable:  true, // SyncEvery 1
		Append:         func(rv core.ReviewData) (uint64, error) { return j.Append(toJournal(rv)) },
		AppendBatch:    appendBatch,
	}
	if tr != nil {
		ingest.Append = func(rv core.ReviewData) (uint64, error) {
			return tr.appendSpan(shard, []core.ReviewData{rv}, func() (uint64, error) { return j.Append(toJournal(rv)) })
		}
		ingest.AppendBatch = func(rvs []core.ReviewData) (uint64, error) {
			return tr.appendSpan(shard, rvs, func() (uint64, error) { return appendBatch(rvs) })
		}
	}
	return n, ingest, nil
}

// serve puts h on a fresh loopback listener and returns its base URL.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	go srv.Serve(ln) // returns when close() shuts srv down
	return "http://" + ln.Addr().String(), nil
}

// listen opens the router's front door.
func (f *fleet) listen() error {
	url, err := f.serve(f.handler)
	f.url = url
	return err
}

// close shuts the listeners down, waits for their requests and closes
// the journals, leaving the directory ready to be reopened.
func (f *fleet) close() error {
	var err error
	for _, srv := range f.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = errors.Join(err, srv.Shutdown(ctx))
		cancel()
	}
	f.servers = nil
	for _, n := range f.nodes {
		if n != nil && n.journal != nil {
			err = errors.Join(err, n.journal.Close())
			n.journal = nil
		}
	}
	return err
}

// owner returns the node whose manifest range holds the entity.
func (f *fleet) owner(entityID string) int {
	for _, ms := range f.manifest.Shard {
		if entityID >= ms.FirstEntity && entityID <= ms.LastEntity {
			return ms.Index
		}
	}
	return -1
}

// journalBytes sums the fleet's journal segment sizes.
func (f *fleet) journalBytes() (int64, error) {
	var total int64
	for _, n := range f.nodes {
		entries, err := os.ReadDir(n.dir)
		if err != nil {
			return 0, err
		}
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			total += info.Size()
		}
	}
	return total, nil
}

// backendHandler serves a backend over HTTP, so a shard that exists
// only as a router backend can sit behind a loopback listener.
func backendHandler(b router.Backend) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if r.Method == http.MethodPost {
			var err error
			if body, err = io.ReadAll(r.Body); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		status, resp, err := b.Do(r.Context(), r.Method, r.URL.RequestURI(), body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(resp)
	})
}

// copyDir copies a flat-or-nested directory of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

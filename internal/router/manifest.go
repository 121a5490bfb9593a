package router

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// ManifestOptions configure FromManifest.
type ManifestOptions struct {
	// Options are the router options.
	Options
	// Replicas overrides the manifest's replica count when > 0: each
	// shard range is served by that many independently loaded in-process
	// backends (the range's shard snapshot is verified once and each
	// replica decodes its own database from it, so replicas share no
	// mutable state — exactly like a remote fleet). 0 follows the
	// manifest.
	Replicas int
	// ReplicasPerRange overrides the replica count per shard range
	// (index-aligned with the manifest's shards; entries <= 0 mean 1).
	// Takes precedence over Replicas and the manifest. Hot ranges can
	// run R=3 while cold ranges stay at R=1.
	ReplicasPerRange []int
	// ShardServer, when non-nil, customizes each in-process shard's server
	// options (entity naming, /healthz snapshot report, journaling); path
	// is the shard's resolved snapshot file and replica the backend's
	// position in the range's replica set. nil serves each shard with
	// zero options. It and WrapBackend are called on FromManifest's
	// goroutine, one node at a time, in manifest order.
	ShardServer func(shard, replica int, path string, db *core.DB, meta *snapshot.Meta) server.Options
	// WrapBackend, when non-nil, wraps each node's backend before the
	// router sees it — the fault-injection seam (DelayBackend, kill
	// switches) the load harness and the replica smoke use.
	WrapBackend func(shard, replica int, b Backend) Backend
}

// FromManifest assembles a single-process sharded deployment from a shard
// manifest: every shard snapshot is read, digest-verified against the
// manifest and checked for the shard identity it claims once per range,
// decoded once per replica, and served through an in-process backend
// behind a router. This is the `opinedbd -router` (no -router-backends)
// path and the builder's -verify path. Backend names are "shard<i>" for single-replica fleets
// (unchanged from the pre-replication router) and "shard<i>.r<j>"
// otherwise.
//
// The loads run concurrently, at most GOMAXPROCS at a time and started in
// manifest order; a range's first load verifies the file, and the others
// wait for it, then decode the same bytes. The hooks do not: ShardServer
// and then WrapBackend run on the calling goroutine, one node at a time,
// in manifest order (shard by shard, replica by replica), each once its
// node's load has finished, so a hook may touch the caller's state
// without locking and a node's hook (say, a journal replay) overlaps the
// loads of the nodes after it.
// A failed load fails the call with the first error in manifest order,
// after no further hook has run and every started load has finished: no
// goroutine outlives FromManifest.
func FromManifest(manifestPath string, opts ManifestOptions) (*Router, *snapshot.Manifest, error) {
	m, err := snapshot.LoadManifest(manifestPath)
	if err != nil {
		return nil, nil, err
	}
	if n := len(opts.ReplicasPerRange); n > 0 && n != m.Shards {
		return nil, nil, fmt.Errorf("router: ReplicasPerRange lists %d ranges for %d shards", n, m.Shards)
	}
	countFor := func(shard int) int {
		if shard < len(opts.ReplicasPerRange) {
			if n := opts.ReplicasPerRange[shard]; n > 0 {
				return n
			}
			return 1
		}
		if opts.Replicas > 0 {
			return opts.Replicas
		}
		return m.ReplicaCount(shard)
	}
	multi := false
	var loads []*shardLoad
	for _, ms := range m.Shard {
		replicas := countFor(ms.Index)
		multi = multi || replicas > 1
		rng := &rangeImage{shard: ms.Index, left: replicas}
		for range replicas {
			loads = append(loads, &shardLoad{rng: rng, done: make(chan struct{})})
		}
	}
	defer loadShards(manifestPath, m, loads)()

	shards := make([]Shard, 0, m.Shards)
	next := 0
	for _, ms := range m.Shard {
		sh := Shard{FirstEntity: ms.FirstEntity, LastEntity: ms.LastEntity}
		replicas := countFor(ms.Index)
		for j := 0; j < replicas; j++ {
			l := loads[next]
			next++
			<-l.done
			if l.err != nil {
				return nil, nil, l.err
			}
			var srvOpts server.Options
			if opts.ShardServer != nil {
				srvOpts = opts.ShardServer(ms.Index, j, snapshot.ShardPath(manifestPath, ms), l.db, l.meta)
			}
			name := fmt.Sprintf("shard%d", ms.Index)
			if multi {
				name = fmt.Sprintf("shard%d.r%d", ms.Index, j)
			}
			var b Backend = NewLocalBackend(name, l.db, srvOpts)
			if opts.WrapBackend != nil {
				b = opts.WrapBackend(ms.Index, j, b)
			}
			if j == 0 {
				sh.Backend = b
			} else {
				sh.Replicas = append(sh.Replicas, b)
			}
		}
		shards = append(shards, sh)
	}
	rt, err := New(shards, opts.Options)
	if err != nil {
		return nil, nil, err
	}
	return rt, m, nil
}

// shardLoad is one node's decode of its range's verified image; done
// closes once db, meta and err are set.
type shardLoad struct {
	rng  *rangeImage
	db   *core.DB
	meta *snapshot.Meta
	err  error
	done chan struct{}
}

// rangeImage is the shard file of one range, opened (read, hashed and
// identity-checked) by the first of its loads to run and closed by the
// last to finish.
type rangeImage struct {
	shard  int
	mu     sync.Mutex
	opened bool
	img    *snapshot.ShardImage
	err    error
	left   int // loads not yet finished
}

// decode opens the image on first use and decodes one replica's database.
func (r *rangeImage) decode(manifestPath string, m *snapshot.Manifest) (*core.DB, *snapshot.Meta, error) {
	r.mu.Lock()
	if !r.opened {
		r.opened = true
		r.img, r.err = snapshot.OpenShard(manifestPath, m, r.shard)
	}
	img, err := r.img, r.err
	r.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return img.Decode()
}

// finish marks one load done, closing the image after the last.
func (r *rangeImage) finish() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.left--; r.left == 0 && r.img != nil {
		r.img.Close()
	}
}

// loadShards runs the loads on min(GOMAXPROCS, len(loads)) workers that
// take them in order, and returns the wait: it stops the loads not yet
// started and returns once every worker has exited.
func loadShards(manifestPath string, m *snapshot.Manifest, loads []*shardLoad) (wait func()) {
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for range min(runtime.GOMAXPROCS(0), len(loads)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < int64(len(loads)); k = next.Add(1) - 1 {
				l := loads[k]
				if !stop.Load() {
					l.db, l.meta, l.err = l.rng.decode(manifestPath, m)
				}
				l.rng.finish()
				close(l.done)
			}
		}()
	}
	return func() {
		stop.Store(true)
		wg.Wait()
	}
}

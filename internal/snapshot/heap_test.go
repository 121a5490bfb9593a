package snapshot_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/snapshot"
)

// shardHeapBudget bounds the live heap one loaded shard adds: shard 0 of
// the package fixture (the small hotel corpus at six markers per
// attribute) split four ways, as `opinedbb -small -shards 4` splits it.
// Measured as TestShardHeapBudget measures it — runtime.GC, then
// ReadMemStats' HeapAlloc, before the load and after it — on linux/amd64
// with Go 1.24: 1,671,928–1,673,136 bytes over six runs, 1,699,640–
// 1,699,904 under -race (2,125,424–2,152,064 while summaries still held a
// materialized copy of every centroid and IR postings were 16 bytes). The
// budget is the -race figure plus 5 %, so a change that brings back a
// second copy of a structure fails here, not only in the benchmark's
// heap_mb.
const shardHeapBudget = 1_785_000

// TestShardHeapBudget loads one shard snapshot and fails when the live
// heap it added exceeds shardHeapBudget. It must not run in parallel with
// another test: the heap is the process's.
func TestShardHeapBudget(t *testing.T) {
	_, db, _ := fixtures(t)
	shards, _, err := db.Shards(4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard0.snap")
	if _, err := snapshot.Save(path, shards[0]); err != nil {
		t.Fatal(err)
	}
	shards = nil
	before := liveHeap()
	sdb, _, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(sdb)
	added := int64(after) - int64(before)
	t.Logf("one loaded shard adds %d bytes (%.2f MiB) of live heap; budget %d", added, float64(added)/(1<<20), shardHeapBudget)
	if added > shardHeapBudget {
		t.Fatalf("one loaded shard adds %d bytes of live heap, over the %d-byte budget", added, shardHeapBudget)
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

package core

import "sync"

// Query-time caching infrastructure. A built DB memoizes deterministic
// derived values (interpretations, prepare-path domain matches, TA degree
// lists); under concurrent query serving those memos are the only shared
// mutable state on the read path, so they are sharded RWMutex caches:
// reads on a warm cache take a shard-local read lock, and independent
// keys contend only within their shard.
//
// Values are computed outside any lock. That admits duplicate computation
// when several goroutines miss on the same cold key simultaneously, but
// every cached function here is a pure function of the built database, so
// duplicates are identical and the first stored value wins.

// cacheShardCount trades memory for contention; 32 shards keeps the
// per-shard mutex hot-set small at typical GOMAXPROCS.
const cacheShardCount = 32

// cacheStripeCap bounds one stripe, so a table holds at most
// cacheShardCount × cacheStripeCap = 65,536 entries. Two of the tables are
// keyed by text from outside the process (interpretations by predicate,
// domain matches by the opinion phrases of ingested reviews) and would
// otherwise grow with every distinct text ever seen. A full
// stripe is dropped whole: every cached value is a pure function of the
// built database, so eviction costs a recomputation and cannot change an
// answer, and the tables keyed by schema-sized sets never reach the cap.
const cacheStripeCap = 2048

// cacheShard is one lock-striped segment of a sharded cache.
type cacheShard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

// shardedCache is a string-keyed concurrent memo table. The zero value is
// ready to use, mirroring the lazily-initialized maps it replaces.
type shardedCache[V any] struct {
	shards [cacheShardCount]cacheShard[V]
}

// shardIndex is FNV-1a over the key, folded to a shard.
func shardIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % cacheShardCount)
}

// get returns the cached value for key, if present.
func (c *shardedCache[V]) get(key string) (V, bool) {
	s := &c.shards[shardIndex(key)]
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	return v, ok
}

// getOrCompute returns the cached value for key, computing and storing it
// on a miss. compute runs without any lock held; when racing computers
// collide on one key, the first stored value is returned to everyone.
func (c *shardedCache[V]) getOrCompute(key string, compute func() V) V {
	if v, ok := c.get(key); ok {
		return v
	}
	v := compute()
	s := &c.shards[shardIndex(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.m[key]; ok {
		return prev // another goroutine won the race; keep its value
	}
	if s.m == nil || len(s.m) >= cacheStripeCap {
		s.m = make(map[string]V)
	}
	s.m[key] = v
	return v
}

// reset drops every cached entry (used when a mutation invalidates the
// derived values).
func (c *shardedCache[V]) reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = nil
		s.mu.Unlock()
	}
}

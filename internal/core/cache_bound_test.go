package core

import (
	"strconv"
	"testing"
)

// len counts the cached entries.
func (c *shardedCache[V]) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// TestShardedCacheBounded: the memo tables keyed by client text stay
// under their cap however many distinct predicates are asked, and an
// evicted key recomputes to the same value.
func TestShardedCacheBounded(t *testing.T) {
	const limit = cacheShardCount * cacheStripeCap
	if limit < 64*1024 {
		t.Fatalf("table cap %d is under 64k entries", limit)
	}
	var c shardedCache[int]
	peak := 0
	for i := 0; i < 1_000_000; i++ {
		v := c.getOrCompute("predicate "+strconv.Itoa(i), func() int { return i })
		if v != i {
			t.Fatalf("key %d cached as %d", i, v)
		}
		if i%4096 == 0 {
			peak = max(peak, c.len())
		}
	}
	if peak = max(peak, c.len()); peak > limit {
		t.Fatalf("cache grew to %d entries past the %d cap", peak, limit)
	}
	if peak < limit/2 {
		t.Fatalf("cache peaked at %d entries; the cap of %d is not being used", peak, limit)
	}
	// Key 0 was evicted long ago; asking again recomputes it.
	calls := 0
	if v := c.getOrCompute("predicate 0", func() int { calls++; return 0 }); v != 0 || calls != 1 {
		t.Fatalf("evicted key: value %d after %d recomputations, want 0 after 1", v, calls)
	}
}

package server

// Per-shard /topk fragment memoization. A sharded /topk scatters the
// same predicate set to every shard and merges the per-shard fragments;
// the fragments are partition-stable — a shard's top-k for a predicate
// set depends only on that shard's entities — so between writes the
// same (predicates, interpretations, k) request recomputes the same
// Threshold-Algorithm answer. The memo caches those fragments under deterministic LRU
// eviction and drops everything on any applied write (interpretation
// state is corpus-global, so a single review can move any score; the
// wholesale drop is what keeps the byte-identity contract trivially
// intact). Results are returned by reference and never mutated after
// insertion.

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/obs"
)

// DefaultTopKMemoEntries bounds the per-shard fragment memo.
const DefaultTopKMemoEntries = 4096

// topkFragment is one memoized /topk answer.
type topkFragment struct {
	rows  []core.ResultRow
	stats core.TopKStats
}

// topkMemo is safe for concurrent use: /topk readers run concurrently
// under the server's read lock, so the memo carries its own mutex.
type topkMemo struct {
	mu           sync.Mutex
	cache        *lru.Cache[string, topkFragment]
	hits, misses *obs.Counter
}

func newTopKMemo(hits, misses *obs.Counter) *topkMemo {
	return &topkMemo{cache: lru.New[string, topkFragment](DefaultTopKMemoEntries), hits: hits, misses: misses}
}

// topkKey canonicalizes a request together with the interpretation each
// predicate runs under (method, connective, A.m terms — everything the
// Threshold Algorithm reads), so a fragment computed under one
// interpretation can only ever answer a request running under the same
// one: a shipped plan (plan.go) cannot plant an answer for requests that
// interpret locally. Every variable-length field is length-prefixed, so
// the key is injective whatever bytes a predicate holds.
func topkKey(preds []string, k int, interps map[string]core.Interpretation) string {
	var b strings.Builder
	field := func(s string) {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	b.WriteString(strconv.Itoa(k))
	for _, p := range preds {
		in := interps[p]
		b.WriteByte('|')
		field(p)
		field(string(in.Method))
		if in.Disjunction {
			b.WriteByte('+')
		}
		for _, t := range in.Terms {
			field(t.Attr)
			b.WriteString(strconv.Itoa(t.Marker))
			b.WriteByte(',')
		}
	}
	return b.String()
}

func (m *topkMemo) get(key string) (topkFragment, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.cache.Get(key)
	if ok {
		m.hits.Inc()
	} else {
		m.misses.Inc()
	}
	return f, ok
}

func (m *topkMemo) put(key string, f topkFragment) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cache.Put(key, f)
}

// invalidate drops every fragment; called after any review is applied.
func (m *topkMemo) invalidate() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cache.Clear()
}

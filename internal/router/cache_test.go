package router

// Unit tests of the front-door /interpret memo cache: interpretation
// state is replicated fleet-wide, so the router may answer repeat
// predicates from memory — until any accepted write invalidates the
// memo.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/server"
)

func cacheRouter(t *testing.T) (*Router, *fakeBackend) {
	t.Helper()
	b := &fakeBackend{name: "s0", replies: map[string]fakeReply{
		"GET /interpret?predicate=clean+rooms": {200, server.InterpretResponse{
			Chosen: server.InterpretationJSON{Predicate: "clean rooms", Method: "w2v", Similarity: 0.9},
		}},
		"POST /reviews": {200, server.ReviewResponse{ReviewID: "r-c1", EntityID: "e5", Owned: true}},
	}}
	r, err := New([]Shard{{Backend: b, FirstEntity: "a", LastEntity: "z"}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r, b
}

func TestInterpretCacheHitMissInvalidate(t *testing.T) {
	r, _ := cacheRouter(t)
	ctx := context.Background()

	resp, cached, err := r.InterpretChain(ctx, "clean rooms")
	if err != nil || cached || resp.Chosen.Predicate != "clean rooms" {
		t.Fatalf("first call: resp=%+v cached=%v err=%v", resp, cached, err)
	}
	again, cached, err := r.InterpretChain(ctx, "clean rooms")
	if err != nil || !cached || again != resp {
		t.Fatalf("second call should hit the memo: cached=%v err=%v", cached, err)
	}
	if hits, misses := r.InterpretCacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 1 hit / 1 miss", hits, misses)
	}

	// Any accepted write drops the memo.
	if _, err := r.AddReview(ctx, server.ReviewRequest{ID: "r-c1", EntityID: "e5", Text: "spotless"}); err != nil {
		t.Fatal(err)
	}
	_, cached, err = r.InterpretChain(ctx, "clean rooms")
	if err != nil || cached {
		t.Fatalf("post-write call should miss: cached=%v err=%v", cached, err)
	}
	if hits, misses := r.InterpretCacheStats(); hits != 1 || misses != 2 {
		t.Fatalf("stats = %d/%d, want 1 hit / 2 misses", hits, misses)
	}
}

// TestInterpretCacheStaleFillFenced: a response fetched against
// pre-write state must not be memoized after an invalidation — the
// generation counter fences the store.
func TestInterpretCacheStaleFillFenced(t *testing.T) {
	r, _ := cacheRouter(t)
	_, gen := r.interpretCached("clean rooms") // miss; remember the generation
	r.invalidateInterpret()                    // a write lands mid-fetch
	r.interpretStore("clean rooms", &server.InterpretResponse{}, gen)
	if resp, _ := r.interpretCached("clean rooms"); resp != nil {
		t.Fatal("stale fill survived the invalidation fence")
	}
}

func TestInterpretCacheBounded(t *testing.T) {
	r, _ := cacheRouter(t)
	for i := 0; i < maxInterpretCacheEntries+10; i++ {
		_, gen := r.interpretCached(fmt.Sprintf("p%d", i))
		r.interpretStore(fmt.Sprintf("p%d", i), &server.InterpretResponse{}, gen)
	}
	r.memoMu.Lock()
	n := r.memo.Len()
	r.memoMu.Unlock()
	if n > maxInterpretCacheEntries {
		t.Fatalf("cache grew to %d entries past the %d cap", n, maxInterpretCacheEntries)
	}
}

// TestInterpretCacheEvictionOrder: the bound is a deterministic LRU —
// overflow evicts exactly the least-recently-used predicate, and a hit
// refreshes recency. (The old cache dropped an arbitrary epoch of
// entries on overflow, so which predicates survived depended on map
// iteration order.)
func TestInterpretCacheEvictionOrder(t *testing.T) {
	r, _ := cacheRouter(t)
	fill := func(pred string) {
		_, gen := r.interpretCached(pred)
		r.interpretStore(pred, &server.InterpretResponse{}, gen)
	}
	for i := 0; i < maxInterpretCacheEntries; i++ {
		fill(fmt.Sprintf("p%d", i))
	}
	// Touch the oldest entry so it is no longer the eviction candidate.
	if resp, _ := r.interpretCached("p0"); resp == nil {
		t.Fatal("p0 missing before any eviction")
	}
	// One past the cap: exactly p1 (now the LRU) must go.
	fill("overflow")
	r.memoMu.Lock()
	n := r.memo.Len()
	r.memoMu.Unlock()
	if n != maxInterpretCacheEntries {
		t.Fatalf("cache holds %d entries after overflow, want %d", n, maxInterpretCacheEntries)
	}
	if resp, _ := r.interpretCached("p1"); resp != nil {
		t.Fatal("p1 survived overflow; it was the least recently used entry")
	}
	for _, keep := range []string{"p0", "p2", "overflow"} {
		if resp, _ := r.interpretCached(keep); resp == nil {
			t.Fatalf("%s was evicted; only the LRU entry (p1) should go", keep)
		}
	}
}

func TestInterpretCacheHeaders(t *testing.T) {
	r, _ := cacheRouter(t)
	front := httptest.NewServer(NewHandler(r))
	defer front.Close()

	get := func() (verdict string) {
		resp, err := http.Get(front.URL + "/interpret?predicate=clean+rooms")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if resp.Header.Get("X-Interpret-Cache-Hits") == "" || resp.Header.Get("X-Interpret-Cache-Misses") == "" {
			t.Fatal("cache counters missing from response headers")
		}
		return resp.Header.Get("X-Interpret-Cache")
	}
	if v := get(); v != "miss" {
		t.Fatalf("first request: %q, want miss", v)
	}
	if v := get(); v != "hit" {
		t.Fatalf("second request: %q, want hit", v)
	}
}

// TestPlanMemoGenerations: an invalidation retires stage-2/3 plans and
// every /interpret answer but keeps stage-1 plans, and the generation
// fences a stale fill of anything except a stage-1 plan.
func TestPlanMemoGenerations(t *testing.T) {
	r, _ := cacheRouter(t)
	frozen := newShippedEntry([]byte(`{"predicate":"a","method":"w2v"}`))
	mined := newShippedEntry([]byte(`{"predicate":"b","method":"cooccur"}`))
	cached := func(pred string) *shippedEntry {
		plans, _ := r.planCached([]string{pred})
		return plans[0]
	}

	_, gen := r.planCached([]string{"a", "b"})
	r.planStore("a", frozen, true, gen)
	r.planStore("b", mined, false, gen)
	r.interpretStore("a", &server.InterpretResponse{}, gen)
	if cached("a") != frozen || cached("b") != mined {
		t.Fatal("stored plans not served")
	}
	if hits, misses := r.metrics.planHits.Value(), r.metrics.planMisses.Value(); hits != 2 || misses != 2 {
		t.Fatalf("plan counters = %d hits / %d misses, want 2 / 2", hits, misses)
	}

	r.invalidateInterpret() // a write lands
	if cached("a") != frozen {
		t.Fatal("the stage-1 plan did not survive the invalidation")
	}
	if cached("b") != nil {
		t.Fatal("the stage-2 plan survived the invalidation")
	}
	if resp, _ := r.interpretCached("a"); resp != nil {
		t.Fatal("the /interpret answer survived the invalidation next to its stage-1 plan")
	}

	// Fills that started before the write: only the stage-1 one may land.
	r.planStore("b", mined, false, gen)
	r.planStore("c", frozen, true, gen)
	if cached("b") != nil {
		t.Fatal("stale stage-2 fill survived the invalidation fence")
	}
	if cached("c") != frozen {
		t.Fatal("a stage-1 fill was fenced; it is valid whenever it was computed")
	}
}

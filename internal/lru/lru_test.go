package lru

import (
	"reflect"
	"testing"
)

func TestPutGetEvictOrder(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		if _, ev := c.Put(k, i); ev {
			t.Fatalf("unexpected eviction inserting %q", k)
		}
	}
	// Touch "a" so "b" becomes the LRU victim.
	if v, ok := c.Get("a"); !ok || v != 0 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	k, ev := c.Put("d", 3)
	if !ev || k != "b" {
		t.Fatalf("evicted %q (%v), want b", k, ev)
	}
	if got, want := c.Keys(), []string{"d", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("evicted key still readable")
	}
}

func TestUpdateRefreshesRecency(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // update, not insert: refreshes a, evicts nothing
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	if k, ev := c.Put("c", 3); !ev || k != "b" {
		t.Fatalf("evicted %q (%v), want b", k, ev)
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("Get(a) = %d, %v, want 10", v, ok)
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	if k, ev := c.Put("c", 3); !ev || k != "a" {
		t.Fatalf("evicted %q (%v), want a — Peek must not promote", k, ev)
	}
}

func TestClear(t *testing.T) {
	c := New[int, string](4)
	for i := 0; i < 4; i++ {
		c.Put(i, "v")
	}
	if c.Len() != 4 {
		t.Fatalf("len after four puts = %d", c.Len())
	}
	c.Clear()
	if c.Len() != 0 || len(c.Keys()) != 0 {
		t.Fatal("Clear left entries behind")
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("cleared key still readable")
	}
}

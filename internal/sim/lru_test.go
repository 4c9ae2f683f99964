package sim

import "testing"

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	l := NewLRU[int, string](2)
	l.Put(1, "a")
	l.Put(2, "b")
	l.Get(1)      // 2 becomes LRU
	l.Put(3, "c") // evicts 2
	if _, ok := l.Get(2); ok {
		t.Fatal("LRU entry survived")
	}
	if v, ok := l.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q,%v", v, ok)
	}
	l.Put(3, "C") // update in place: no eviction
	if v, ok := l.Get(3); !ok || v != "C" || l.Len() != 2 {
		t.Fatalf("Get(3) = %q,%v len %d", v, ok, l.Len())
	}
	l.EvictOldest() // 1 is LRU after the Get(3)
	if _, ok := l.Get(1); ok || l.Len() != 1 {
		t.Fatalf("EvictOldest kept 1 (len %d)", l.Len())
	}
	l.Remove(3)
	l.Remove(3)
	if l.Len() != 0 {
		t.Fatalf("len after Remove = %d", l.Len())
	}
	l.Put(4, "d")
	l.Put(5, "e")
	l.Clear()
	if _, ok := l.Get(4); ok || l.Len() != 0 {
		t.Fatal("Clear kept entries")
	}
}

package resultcache_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"hwgc/internal/resultcache"
	"hwgc/internal/telemetry"
)

func key(i int) resultcache.Key {
	return resultcache.KeyOf("test", uint64(i))
}

func TestCacheGetPut(t *testing.T) {
	c, err := resultcache.New(8, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("hit on empty cache")
	}
	val := []byte("report one")
	if err := c.Put(key(1), val); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key(1))
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, val)
	}
	// Stored and returned payloads are private copies.
	got[0] = 'X'
	val[0] = 'Y'
	again, _ := c.Get(key(1))
	if string(again) != "report one" {
		t.Fatalf("cache content was mutated through an alias: %q", again)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got, want := st.HitRate(), 2.0/3.0; got != want {
		t.Fatalf("hit rate = %v, want %v", got, want)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := resultcache.New(2, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(key(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	for i := 1; i < 3; i++ {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("recent entry %d evicted", i)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	c1, err := resultcache.New(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put(key(7), []byte("persisted")); err != nil {
		t.Fatal(err)
	}

	// A fresh process (new Cache over the same dir) serves the entry.
	c2, err := resultcache.New(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key(7))
	if !ok || string(got) != "persisted" {
		t.Fatalf("disk tier miss: %q, %v", got, ok)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want one disk hit", st)
	}
	// Promotion: second lookup is a memory hit.
	if _, ok := c2.Get(key(7)); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Hits != 2 {
		t.Fatalf("stats after promotion = %+v", st)
	}
}

func TestCacheConcurrent(t *testing.T) {
	c, err := resultcache.New(32, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(i % 16)
				if v, ok := c.Get(k); ok {
					if string(v) != fmt.Sprintf("val-%d", i%16) {
						t.Errorf("worker %d: wrong payload %q for %d", w, v, i%16)
						return
					}
				} else if err := c.Put(k, fmt.Appendf(nil, "val-%d", i%16)); err != nil {
					t.Errorf("worker %d: put: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestCacheTelemetry(t *testing.T) {
	c, err := resultcache.New(4, "")
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(0)
	c.AttachTelemetry(hub)
	c.Put(key(1), []byte("x"))
	c.Get(key(1))
	c.Get(key(2))
	reg := hub.Snapshot()
	for name, want := range map[string]float64{
		"resultcache.hits":    1,
		"resultcache.misses":  1,
		"resultcache.puts":    1,
		"resultcache.entries": 1,
		"resultcache.hitrate": 0.5,
	} {
		got, ok := reg.Value(name)
		if !ok || got != want {
			t.Errorf("%s = %v, %v; want %v", name, got, ok, want)
		}
	}
}

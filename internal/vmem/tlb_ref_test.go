package vmem

import (
	"testing"

	"hwgc/internal/sim"
)

// mapTLB is the TLB as it was before the recency list: a map of entries
// stamped with last-use ticks, scanned for the oldest one on a full
// Insert. It is kept as the reference the O(1) TLB must match exactly.
type mapTLB struct {
	capacity int
	slots    map[uint64]mapTLBEntry
	tick     uint64
}

type mapTLBEntry struct {
	base    uint64
	lastUse uint64
}

func newMapTLB(capacity int) *mapTLB {
	return &mapTLB{capacity: capacity, slots: make(map[uint64]mapTLBEntry, capacity)}
}

func (t *mapTLB) Lookup(va uint64) (uint64, bool) {
	t.tick++
	for _, bits := range []int{PageBits, SuperPageBits} {
		k := key(va, bits)
		if e, found := t.slots[k]; found {
			e.lastUse = t.tick
			t.slots[k] = e
			return e.base + va&((1<<uint(bits))-1), true
		}
	}
	return 0, false
}

func (t *mapTLB) Insert(va, pa uint64, pageBits int) {
	if t.capacity == 0 {
		return
	}
	t.tick++
	if len(t.slots) >= t.capacity {
		var lruKey uint64
		lru := ^uint64(0)
		for k, e := range t.slots {
			if e.lastUse < lru {
				lru = e.lastUse
				lruKey = k
			}
		}
		delete(t.slots, lruKey)
	}
	mask := uint64(1)<<uint(pageBits) - 1
	t.slots[key(va, pageBits)] = mapTLBEntry{base: pa &^ mask, lastUse: t.tick}
}

func (t *mapTLB) InvalidatePage(va uint64) {
	for _, bits := range []int{PageBits, SuperPageBits} {
		delete(t.slots, key(va, bits))
	}
}

func (t *mapTLB) Flush() { t.slots = make(map[uint64]mapTLBEntry, t.capacity) }

// TestTLBMatchesMapReference drives random Lookup/Insert/InvalidatePage/
// Flush streams through the TLB and the map reference and requires the
// same hit or miss, the same physical address and the same entry count at
// every step. The streams cover 300 4 KiB pages spread over three
// superpages, with some superpage entries, so a full TLB often gets an
// Insert for a page it already holds (the kept eviction quirk).
func TestTLBMatchesMapReference(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 4, 32, 64, 128} {
		tlb, ref := NewTLB(capacity), newMapTLB(capacity)
		r := sim.NewRand(uint64(capacity) + 1)
		va := func() uint64 {
			p := uint64(r.Intn(300))
			return p%100<<PageBits | p/100<<SuperPageBits | uint64(r.Intn(PageSize))
		}
		fullReinserts := 0
		for step := 0; step < 20000; step++ {
			switch op := r.Intn(200); {
			case op < 100:
				v := va()
				pa, ok := tlb.Lookup(v)
				wantPA, wantOK := ref.Lookup(v)
				if ok != wantOK || pa != wantPA {
					t.Fatalf("cap %d step %d: Lookup(0x%x) = 0x%x,%v, reference 0x%x,%v",
						capacity, step, v, pa, ok, wantPA, wantOK)
				}
			case op < 190:
				v, bits := va(), PageBits
				if r.Intn(10) == 0 {
					bits = SuperPageBits
				}
				pa := uint64(r.Intn(1<<20)) << PageBits
				if _, present := ref.slots[key(v, bits)]; present && len(ref.slots) >= capacity {
					fullReinserts++
				}
				tlb.Insert(v, pa, bits)
				ref.Insert(v, pa, bits)
			case op < 199:
				v := va()
				tlb.InvalidatePage(v)
				ref.InvalidatePage(v)
			default:
				tlb.Flush()
				ref.Flush()
			}
			if got, want := tlb.entries.Len(), len(ref.slots); got != want {
				t.Fatalf("cap %d step %d: %d entries, reference %d", capacity, step, got, want)
			}
		}
		if capacity > 0 && fullReinserts == 0 {
			t.Errorf("cap %d: stream never inserted a present page into a full TLB", capacity)
		}
	}
}

// BenchmarkTLBInsertFull measures a fill of a full 128-entry TLB: every
// Insert is a new page, so every one evicts the LRU entry.
func BenchmarkTLBInsertFull(b *testing.B) {
	const capacity = 128
	tlb := NewTLB(capacity)
	for i := uint64(0); i < capacity; i++ {
		tlb.Insert(i<<PageBits, i<<PageBits, PageBits)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := uint64(capacity+i) << PageBits
		tlb.Insert(va, va, PageBits)
	}
}

// BenchmarkTLBLookupHit measures a hit in a full 32-entry TLB (the marker
// and tracer L1 size under the scaled configuration).
func BenchmarkTLBLookupHit(b *testing.B) {
	const capacity = 32
	tlb := NewTLB(capacity)
	for i := uint64(0); i < capacity; i++ {
		tlb.Insert(i<<PageBits, i<<PageBits, PageBits)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tlb.Lookup(uint64(i%capacity)<<PageBits | 8); !ok {
			b.Fatal("miss in a warm TLB")
		}
	}
}

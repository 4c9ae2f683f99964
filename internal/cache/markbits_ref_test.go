package cache

import (
	"testing"

	"hwgc/internal/sim"
)

// mapMarkBits is the mark-bit filter as it was before the recency list: a
// map of last-use ticks scanned for the oldest one on a full miss. It is
// kept as the reference the O(1) filter must match exactly.
type mapMarkBits struct {
	capacity int
	slots    map[uint64]uint64
	tick     uint64
}

func (m *mapMarkBits) Probe(addr uint64) bool {
	if m.capacity == 0 {
		return false
	}
	m.tick++
	if _, ok := m.slots[addr]; ok {
		m.slots[addr] = m.tick
		return true
	}
	if len(m.slots) >= m.capacity {
		var lruAddr uint64
		lru := ^uint64(0)
		for a, t := range m.slots {
			if t < lru {
				lru = t
				lruAddr = a
			}
		}
		delete(m.slots, lruAddr)
	}
	m.slots[addr] = m.tick
	return false
}

// TestMarkBitsMatchesMapReference drives random probe streams, with the
// occasional Reset, through the filter and the map reference and requires
// the same hit or miss and the same size at every step.
func TestMarkBitsMatchesMapReference(t *testing.T) {
	for _, capacity := range []int{0, 1, 2, 4, 32, 64, 128} {
		mb := NewMarkBits(capacity)
		ref := &mapMarkBits{capacity: capacity, slots: map[uint64]uint64{}}
		r := sim.NewRand(uint64(capacity) + 1)
		for step := 0; step < 20000; step++ {
			if r.Intn(1000) == 0 {
				mb.Reset()
				ref.slots, ref.tick = map[uint64]uint64{}, 0
				continue
			}
			addr := uint64(r.Intn(300)) * 16
			if got, want := mb.Probe(addr), ref.Probe(addr); got != want {
				t.Fatalf("cap %d step %d: Probe(0x%x) = %v, reference %v", capacity, step, addr, got, want)
			}
			if got, want := mb.recent.Len(), len(ref.slots); got != want {
				t.Fatalf("cap %d step %d: %d entries, reference %d", capacity, step, got, want)
			}
		}
	}
}

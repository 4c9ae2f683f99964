package cache

import "hwgc/internal/sim"

// MarkBits is the small mark-bit cache from the paper (Section V-C,
// Figure 21): a fully-associative LRU filter over recently marked object
// addresses. The paper observes that ~56 hot objects receive about 10% of
// all mark operations, so a tiny filter removes a meaningful slice of AMO
// traffic.
//
// A capacity of 0 disables the filter (every lookup misses).
type MarkBits struct {
	capacity int
	recent   *sim.LRU[uint64, struct{}]

	// Lookups counts filter probes.
	Lookups uint64
	// Hits counts probes that found the address (mark elided).
	Hits uint64
}

// NewMarkBits returns a filter holding up to capacity addresses.
func NewMarkBits(capacity int) *MarkBits {
	return &MarkBits{capacity: capacity, recent: sim.NewLRU[uint64, struct{}](capacity)}
}

// Capacity returns the configured entry count.
func (m *MarkBits) Capacity() int { return m.capacity }

// Probe checks whether addr was recently marked; on miss the address is
// inserted (evicting the least recently used entry when full). It returns
// true when the mark request can be elided.
//
//hwgc:hotpath
func (m *MarkBits) Probe(addr uint64) bool {
	m.Lookups++
	if m.capacity == 0 {
		return false
	}
	if _, ok := m.recent.Get(addr); ok {
		m.Hits++
		return true
	}
	m.recent.Put(addr, struct{}{})
	return false
}

// HitRate returns Hits/Lookups (0 when unused).
func (m *MarkBits) HitRate() float64 {
	if m.Lookups == 0 {
		return 0
	}
	return float64(m.Hits) / float64(m.Lookups)
}

// Reset clears contents and counters.
func (m *MarkBits) Reset() {
	m.recent.Clear()
	m.Lookups = 0
	m.Hits = 0
}

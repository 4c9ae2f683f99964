// Package cache provides the timing-only cache models used in the system:
//
//   - State: a set-associative tag array with LRU replacement (no data; the
//     functional heap lives in internal/mem, so caches only affect timing
//     and traffic counts).
//   - Sync: a blocking cache level for the trace-driven in-order CPU
//     hierarchy (L1 -> L2 -> DRAM).
//   - Event: an event-driven shared cache with a single-ported crossbar and
//     MSHRs, used to reproduce the paper's shared-vs-partitioned traversal
//     unit experiment (Figure 18).
//   - MarkBits: the small mark-bit cache / dynamic filter from Figure 21.
package cache

// LineSize is the cache line size in bytes.
const LineSize = 64

// State is a set-associative tag array with LRU replacement.
type State struct {
	sets    int
	ways    int
	tags    [][]uint64 // per set, per way; 0 = invalid (tag stored +1)
	dirty   [][]bool
	lruTick uint64
	lru     [][]uint64

	Hits   uint64
	Misses uint64
}

// NewState returns a cache with the given total size and associativity.
// size must be a multiple of ways*LineSize.
func NewState(size, ways int) *State {
	if ways <= 0 {
		ways = 1
	}
	sets := size / (ways * LineSize)
	if sets <= 0 {
		sets = 1
	}
	// One backing array per field, cut into per-set slices: three
	// allocations per cache instead of three per set.
	s := &State{sets: sets, ways: ways}
	s.tags = make([][]uint64, sets)
	s.dirty = make([][]bool, sets)
	s.lru = make([][]uint64, sets)
	tags, dirty, lru := make([]uint64, sets*ways), make([]bool, sets*ways), make([]uint64, sets*ways)
	for i := 0; i < sets; i++ {
		lo, hi := i*ways, (i+1)*ways
		s.tags[i] = tags[lo:hi:hi]
		s.dirty[i] = dirty[lo:hi:hi]
		s.lru[i] = lru[lo:hi:hi]
	}
	return s
}

// Sets returns the number of sets.
func (s *State) Sets() int { return s.sets }

// Ways returns the associativity.
func (s *State) Ways() int { return s.ways }

func (s *State) index(addr uint64) (set int, tag uint64) {
	line := addr / LineSize
	return int(line % uint64(s.sets)), line/uint64(s.sets) + 1
}

// Access looks up addr, updating LRU and hit/miss counters. When the line
// is absent it is inserted; the return values report whether it hit and
// whether a dirty victim was evicted (requiring a write-back).
func (s *State) Access(addr uint64, write bool) (hit, writeback bool) {
	set, tag := s.index(addr)
	s.lruTick++
	for w := 0; w < s.ways; w++ {
		if s.tags[set][w] == tag {
			s.lru[set][w] = s.lruTick
			if write {
				s.dirty[set][w] = true
			}
			s.Hits++
			return true, false
		}
	}
	s.Misses++
	// Victim: invalid way first, else LRU.
	victim := 0
	var oldest uint64 = ^uint64(0)
	for w := 0; w < s.ways; w++ {
		if s.tags[set][w] == 0 {
			victim = w
			oldest = 0
			break
		}
		if s.lru[set][w] < oldest {
			oldest = s.lru[set][w]
			victim = w
		}
	}
	writeback = s.tags[set][victim] != 0 && s.dirty[set][victim]
	s.tags[set][victim] = tag
	s.dirty[set][victim] = write
	s.lru[set][victim] = s.lruTick
	return false, writeback
}

// Contains reports whether addr's line is present without updating state.
func (s *State) Contains(addr uint64) bool {
	set, tag := s.index(addr)
	for w := 0; w < s.ways; w++ {
		if s.tags[set][w] == tag {
			return true
		}
	}
	return false
}

// Flush invalidates the whole cache, returning the number of dirty lines
// that would be written back.
func (s *State) Flush() int {
	dirty := 0
	for set := 0; set < s.sets; set++ {
		for w := 0; w < s.ways; w++ {
			if s.tags[set][w] != 0 && s.dirty[set][w] {
				dirty++
			}
			s.tags[set][w] = 0
			s.dirty[set][w] = false
		}
	}
	return dirty
}

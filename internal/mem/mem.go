// Package mem implements the functional (untimed) physical memory that
// underlies the whole simulation: a sparse, page-granular byte store with
// 64-bit little-endian accessors and the fetch-or atomic the traversal
// unit's marker uses to mark objects.
//
// Timing is layered on top by internal/dram; correctness-critical state
// (object headers, reference fields, free lists, page tables) lives here so
// that the software collector and the GC unit can be cross-checked against
// each other on identical heaps.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the physical page granule of the sparse store. It matches the
// 4 KiB virtual page size used by the simulated page tables.
const PageSize = 4096

// slabPages is how many pages one backing slab holds. Allocating pages in
// slabs keeps setup to a handful of large allocations instead of one small
// allocation per touched page.
const slabPages = 64

// recentPages is the size of Physical's direct-mapped recent-page array.
// The simulated units stream through a few pages at a time (a block being
// swept, a span being traced, the page-table pages of a walk), so a small
// array indexed by page number takes most lookups off the page map.
const recentPages = 64

// page is one physical page. frozen marks a page owned by a Snapshot: it is
// shared between the snapshot and any number of clones and must never be
// written in place — writers copy it first (copy-on-write).
type page struct {
	frozen bool
	data   [PageSize]byte
}

// Physical is a sparse physical memory of a fixed capacity. Accesses beyond
// the capacity panic: they indicate a simulator bug, not a recoverable
// condition. A Physical belongs to one goroutine: even a read fills its
// recent-page array. Memory shared between goroutines is shared as a
// Snapshot, whose clones are each private.
type Physical struct {
	size  uint64
	pages map[uint64]*page
	slab  []page

	// recent caches pages[idx] at recent[idx%recentPages] (an entry holds
	// idx+1, so the zero value is empty). page fills it; writablePage, the
	// only writer of pages, replaces the entry with the map's page. A
	// frozen page stays frozen in the array too, so a write through it
	// still copies first.
	recent [recentPages]recentPage
}

// recentPage is one entry of Physical's recent-page array.
type recentPage struct {
	idx uint64 // page index + 1; 0 = empty
	p   *page
}

// New returns a physical memory with the given capacity in bytes.
func New(size uint64) *Physical {
	return &Physical{size: size, pages: make(map[uint64]*page)}
}

// Size returns the configured capacity in bytes.
func (m *Physical) Size() uint64 { return m.size }

// Pages returns the number of physical pages that have been touched.
func (m *Physical) Pages() int { return len(m.pages) }

func (m *Physical) newPage() *page {
	if len(m.slab) == 0 {
		m.slab = make([]page, slabPages)
	}
	p := &m.slab[0]
	m.slab = m.slab[1:]
	return p
}

func (m *Physical) checkBounds(pa uint64) {
	if pa >= m.size {
		panic(fmt.Sprintf("mem: physical access 0x%x beyond capacity 0x%x", pa, m.size))
	}
}

// page returns the page covering pa for reading, or nil if untouched. It is
// the one reader of the recent-page array and fills it on a map hit.
func (m *Physical) page(pa uint64) *page {
	m.checkBounds(pa)
	idx := pa / PageSize
	r := &m.recent[idx%recentPages]
	if r.idx != idx+1 {
		p := m.pages[idx]
		if p == nil {
			return nil
		}
		r.idx, r.p = idx+1, p
	}
	return r.p
}

// writablePage returns the page covering pa for writing, creating it if
// untouched and copying it first if it is frozen (shared with a snapshot).
// A new or copied page replaces the map's page and its recent-page entry
// together.
func (m *Physical) writablePage(pa uint64) *page {
	p := m.page(pa)
	if p != nil && !p.frozen {
		return p
	}
	np := m.newPage()
	if p != nil {
		np.data = p.data
	}
	idx := pa / PageSize
	m.pages[idx] = np
	m.recent[idx%recentPages] = recentPage{idx: idx + 1, p: np}
	return np
}

// Snapshot freezes the current contents and returns an immutable image of
// them. The receiver stays usable: its pages become copy-on-write, so later
// writes through it (or through any Clone) never alter the snapshot.
// Snapshotting is O(touched pages) and copies no page data.
func (m *Physical) Snapshot() *Snapshot {
	pages := make(map[uint64]*page, len(m.pages))
	for idx, p := range m.pages {
		p.frozen = true
		pages[idx] = p
	}
	return &Snapshot{size: m.size, pages: pages}
}

// Snapshot is an immutable heap image: a frozen page index that any number
// of Physical clones share. It is safe for concurrent Clone calls once
// built.
type Snapshot struct {
	size  uint64
	pages map[uint64]*page
}

// Size returns the capacity of the captured memory in bytes.
func (s *Snapshot) Size() uint64 { return s.size }

// Pages returns the number of pages the snapshot holds.
func (s *Snapshot) Pages() int { return len(s.pages) }

// Clone returns a new Physical backed by the snapshot's frozen pages.
// Reads hit the shared pages directly; the first write to a page copies it
// into the clone, so mutations never leak into the snapshot or into
// sibling clones. Cloning is O(pages) and copies no page data; the clone
// starts with an empty recent-page array.
func (s *Snapshot) Clone() *Physical {
	pages := make(map[uint64]*page, len(s.pages))
	for idx, p := range s.pages {
		pages[idx] = p
	}
	return &Physical{size: s.size, pages: pages}
}

// Load64 reads the 64-bit word at pa. pa must be 8-byte aligned.
func (m *Physical) Load64(pa uint64) uint64 {
	checkAlign(pa, 8)
	p := m.page(pa)
	if p == nil {
		return 0
	}
	off := pa % PageSize
	return binary.LittleEndian.Uint64(p.data[off : off+8])
}

// Store64 writes the 64-bit word v at pa. pa must be 8-byte aligned.
func (m *Physical) Store64(pa, v uint64) {
	binary.LittleEndian.PutUint64(m.word64(pa), v)
}

// Load32 reads the 32-bit word at pa. pa must be 4-byte aligned.
func (m *Physical) Load32(pa uint64) uint32 {
	checkAlign(pa, 4)
	p := m.page(pa)
	if p == nil {
		return 0
	}
	off := pa % PageSize
	return binary.LittleEndian.Uint32(p.data[off : off+4])
}

// Store32 writes the 32-bit word v at pa. pa must be 4-byte aligned.
func (m *Physical) Store32(pa uint64, v uint32) {
	checkAlign(pa, 4)
	p := m.writablePage(pa)
	off := pa % PageSize
	binary.LittleEndian.PutUint32(p.data[off:off+4], v)
}

// FetchOr64 atomically ORs bits into the word at pa and returns the
// previous value. This is the single-AMO mark operation from the paper:
// the marker sets the mark bit and receives the old status word (mark bit
// plus #REFS) in one memory round trip.
func (m *Physical) FetchOr64(pa, bits uint64) uint64 {
	w := m.word64(pa)
	old := binary.LittleEndian.Uint64(w)
	binary.LittleEndian.PutUint64(w, old|bits)
	return old
}

// FetchAnd64 atomically ANDs bits into the word at pa and returns the
// previous value. Together with FetchOr64 it lets the marker set or clear
// the mark bit depending on the current mark-bit polarity (the mark sense
// flips every collection so that sweeping never has to clear mark bits).
func (m *Physical) FetchAnd64(pa, bits uint64) uint64 {
	w := m.word64(pa)
	old := binary.LittleEndian.Uint64(w)
	binary.LittleEndian.PutUint64(w, old&bits)
	return old
}

// word64 returns the writable 8 bytes at pa (one page lookup for a
// read-modify-write). pa must be 8-byte aligned.
func (m *Physical) word64(pa uint64) []byte {
	checkAlign(pa, 8)
	p := m.writablePage(pa)
	off := pa % PageSize
	return p.data[off : off+8]
}

// Read copies len(buf) bytes starting at pa into buf, crossing pages as
// needed.
func (m *Physical) Read(pa uint64, buf []byte) {
	for len(buf) > 0 {
		off := pa % PageSize
		n := PageSize - off
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		p := m.page(pa)
		if p == nil {
			for i := uint64(0); i < n; i++ {
				buf[i] = 0
			}
		} else {
			copy(buf[:n], p.data[off:off+n])
		}
		buf = buf[n:]
		pa += n
	}
}

// Write copies buf into memory starting at pa, crossing pages as needed.
func (m *Physical) Write(pa uint64, buf []byte) {
	for len(buf) > 0 {
		off := pa % PageSize
		n := PageSize - off
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		p := m.writablePage(pa)
		copy(p.data[off:off+n], buf[:n])
		buf = buf[n:]
		pa += n
	}
}

func checkAlign(pa uint64, n uint64) {
	if pa%n != 0 {
		panic(fmt.Sprintf("mem: misaligned %d-byte access at 0x%x", n, pa))
	}
}

// Region is a contiguous physical address range handed out by Arena.
type Region struct {
	Base uint64
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether pa falls inside the region.
func (r Region) Contains(pa uint64) bool { return pa >= r.Base && pa < r.Base+r.Size }

// Arena carves non-overlapping regions out of a physical memory, the way
// the simulated boot code lays out heap, page tables, spill region and the
// root (hwgc) space.
type Arena struct {
	mem  *Physical
	next uint64
}

// NewArena returns an arena allocating from the start of m.
func NewArena(m *Physical) *Arena { return &Arena{mem: m} }

// Alloc reserves size bytes aligned to align (a power of two) and returns
// the region. It panics when physical memory is exhausted.
func (a *Arena) Alloc(size, align uint64) Region {
	if align == 0 {
		align = 8
	}
	base := (a.next + align - 1) &^ (align - 1)
	if base+size > a.mem.Size() {
		panic(fmt.Sprintf("mem: arena exhausted: need 0x%x at 0x%x, capacity 0x%x", size, base, a.mem.Size()))
	}
	a.next = base + size
	return Region{Base: base, Size: size}
}

// Used returns the number of bytes allocated so far (including alignment
// padding).
func (a *Arena) Used() uint64 { return a.next }

// CloneFor returns an arena over m that continues from the same allocation
// point as a — used when m is a snapshot clone of a's memory.
func (a *Arena) CloneFor(m *Physical) *Arena { return &Arena{mem: m, next: a.next} }

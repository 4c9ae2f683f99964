// Package vmem implements the virtual-memory substrate the GC unit operates
// in: Sv39-style three-level page tables built in simulated physical memory,
// TLBs with LRU replacement, and page-table walkers (an event-driven
// blocking walker for the unit, a synchronous one for the CPU).
//
// The unit operates on virtual addresses (it shares the mutator process's
// address space, configured by the driver with the page-table base pointer),
// so TLB reach and PTW traffic are first-order effects — the paper's
// Figure 18a shows the walker generating two thirds of all cache requests
// in the shared-cache design.
package vmem

import (
	"fmt"

	"hwgc/internal/mem"
)

// PageSize is the base page size (4 KiB), PageBits its log2.
const (
	PageSize  = 4096
	PageBits  = 12
	ptEntries = 512
	levelBits = 9
	// SuperPageBits is the log2 of a level-1 superpage (2 MiB).
	SuperPageBits = PageBits + levelBits
	// Levels is the number of page-table levels (Sv39).
	Levels = 3
)

// PTE bits (RISC-V-like).
const (
	pteValid = 1 << 0
	pteLeaf  = 1 << 1 // set on leaf entries (R bit stands in for RWX)
	ppnShift = 10
)

// PageTable builds and walks a three-level page table stored in simulated
// physical memory.
type PageTable struct {
	mem   *mem.Physical
	arena *mem.Arena
	root  uint64

	// TablePages counts allocated page-table pages.
	TablePages int
}

// NewPageTable allocates a root table from arena.
func NewPageTable(m *mem.Physical, arena *mem.Arena) *PageTable {
	pt := &PageTable{mem: m, arena: arena}
	pt.root = pt.allocTable()
	return pt
}

// Root returns the physical address of the root table (the page-table base
// pointer the driver writes into the unit's configuration registers).
func (pt *PageTable) Root() uint64 { return pt.root }

// CloneFor returns a page table handle over m (a snapshot clone of the
// memory the tables were built in). The table pages themselves live in
// simulated memory, so only the root pointer and counters carry over.
func (pt *PageTable) CloneFor(m *mem.Physical, arena *mem.Arena) *PageTable {
	return &PageTable{mem: m, arena: arena, root: pt.root, TablePages: pt.TablePages}
}

func (pt *PageTable) allocTable() uint64 {
	r := pt.arena.Alloc(PageSize, PageSize)
	pt.TablePages++
	return r.Base
}

func vpn(va uint64, level int) uint64 {
	shift := PageBits + levelBits*level
	return (va >> shift) & (ptEntries - 1)
}

// Map installs a 4 KiB translation va -> pa. Both must be page-aligned.
func (pt *PageTable) Map(va, pa uint64) {
	pt.mapAt(va, pa, 0)
}

// MapSuper installs a 2 MiB superpage translation. Both addresses must be
// 2 MiB-aligned.
func (pt *PageTable) MapSuper(va, pa uint64) {
	if va%(1<<SuperPageBits) != 0 || pa%(1<<SuperPageBits) != 0 {
		panic(fmt.Sprintf("vmem: unaligned superpage map va=0x%x pa=0x%x", va, pa))
	}
	pt.mapAt(va, pa, 1)
}

func (pt *PageTable) mapAt(va, pa uint64, leafLevel int) {
	if va%PageSize != 0 || pa%PageSize != 0 {
		panic(fmt.Sprintf("vmem: unaligned map va=0x%x pa=0x%x", va, pa))
	}
	table := pt.root
	for level := Levels - 1; level > leafLevel; level-- {
		slot := table + vpn(va, level)*8
		e := pt.mem.Load64(slot)
		if e&pteValid == 0 {
			next := pt.allocTable()
			pt.mem.Store64(slot, (next>>PageBits)<<ppnShift|pteValid)
			table = next
		} else {
			if e&pteLeaf != 0 {
				panic(fmt.Sprintf("vmem: remapping over superpage at va=0x%x", va))
			}
			table = (e >> ppnShift) << PageBits
		}
	}
	slot := table + vpn(va, leafLevel)*8
	pt.mem.Store64(slot, (pa>>PageBits)<<ppnShift|pteValid|pteLeaf)
}

// MapRange flat-maps size bytes from va to pa with 4 KiB pages.
func (pt *PageTable) MapRange(va, pa, size uint64) {
	end := va + size
	for ; va < end; va, pa = va+PageSize, pa+PageSize {
		pt.Map(va, pa)
	}
}

// MapRangeSuper flat-maps size bytes using 2 MiB superpages.
func (pt *PageTable) MapRangeSuper(va, pa, size uint64) {
	end := va + size
	step := uint64(1) << SuperPageBits
	for ; va < end; va, pa = va+step, pa+step {
		pt.MapSuper(va, pa)
	}
}

// Unmap removes the leaf translation for va (4 KiB granularity). It is used
// by the relocating-collector model, which invalidates evacuated pages.
func (pt *PageTable) Unmap(va uint64) {
	table := pt.root
	for level := Levels - 1; level > 0; level-- {
		e := pt.mem.Load64(table + vpn(va, level)*8)
		if e&pteValid == 0 {
			return
		}
		if e&pteLeaf != 0 {
			pt.mem.Store64(table+vpn(va, level)*8, 0)
			return
		}
		table = (e >> ppnShift) << PageBits
	}
	pt.mem.Store64(table+vpn(va, 0)*8, 0)
}

// Walk translates va, returning the physical address, the size (log2) of
// the mapping page, and the physical addresses of the PTEs visited, root
// first: ptes[:n] (for timing models). ok is false for unmapped addresses
// (a page fault).
func (pt *PageTable) Walk(va uint64) (pa uint64, pageBits int, ptes [Levels]uint64, n int, ok bool) {
	table := pt.root
	for level := Levels - 1; level >= 0; level-- {
		slot := table + vpn(va, level)*8
		ptes[n] = slot
		n++
		e := pt.mem.Load64(slot)
		if e&pteValid == 0 {
			return 0, 0, ptes, n, false
		}
		if e&pteLeaf != 0 {
			bits := PageBits + levelBits*level
			base := (e >> ppnShift) << PageBits
			off := va & ((1 << bits) - 1)
			return base + off, bits, ptes, n, true
		}
		table = (e >> ppnShift) << PageBits
	}
	return 0, 0, ptes, n, false
}

// Translate is the functional translation (no trace). ok is false on fault.
func (pt *PageTable) Translate(va uint64) (uint64, bool) {
	pa, _, _, _, ok := pt.Walk(va)
	return pa, ok
}

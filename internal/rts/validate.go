package rts

import (
	"fmt"

	"hwgc/internal/heap"
)

// Reachable computes the ground-truth reachable set by a functional
// (untimed) BFS from the current roots. Collector implementations are
// validated against it.
func (s *System) Reachable() map[heap.Ref]bool {
	seen := make(map[heap.Ref]bool)
	var queue []heap.Ref
	for _, r := range s.Roots.Mirror() {
		if r != 0 && !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		n := s.Heap.NumRefsOf(obj)
		for i := 0; i < n; i++ {
			t := s.Heap.RefAt(obj, i)
			if t != 0 && !seen[t] {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	return seen
}

// CheckMarks verifies the mark phase: every reachable object is marked and
// no unreachable object is. Call after a mark pass, before sweeping.
func (s *System) CheckMarks() error {
	reach := s.Reachable()
	for r := range reach {
		if !s.Heap.IsMarked(r) {
			return fmt.Errorf("reachable object 0x%x not marked", r)
		}
	}
	for _, r := range s.Heap.MS.LiveObjects() {
		if !reach[r] && s.Heap.IsMarked(r) {
			return fmt.Errorf("unreachable object 0x%x marked", r)
		}
	}
	for _, r := range s.Heap.Bump.Objects() {
		if !reach[r] && s.Heap.IsMarked(r) {
			return fmt.Errorf("unreachable bump object 0x%x marked", r)
		}
	}
	return nil
}

// CheckSweep verifies the sweep phase: surviving cells are exactly the
// reachable objects, every other cell is on its block's free list exactly
// once, and descriptors agree with memory.
func (s *System) CheckSweep() error {
	reach := s.Reachable()
	ms := s.Heap.MS
	for bi := 0; bi < ms.NumBlocks(); bi++ {
		b := ms.Block(bi)
		onFreeList := make(map[uint64]bool)
		head := s.Heap.Load(ms.EntryVA(bi) + 16)
		for cell := head; cell != 0; cell = s.Heap.Load(cell) {
			if cell < b.Base || cell >= b.Base+uint64(b.Cells)*b.CellSize {
				return fmt.Errorf("block %d: free-list entry 0x%x outside block", bi, cell)
			}
			if (cell-b.Base)%b.CellSize != 0 {
				return fmt.Errorf("block %d: free-list entry 0x%x misaligned", bi, cell)
			}
			if onFreeList[cell] {
				return fmt.Errorf("block %d: cell 0x%x on free list twice", bi, cell)
			}
			onFreeList[cell] = true
		}
		for i := 0; i < b.Cells; i++ {
			cell := b.Base + uint64(i)*b.CellSize
			w := s.Heap.Load(s.Heap.StatusAddr(cell))
			switch {
			case heap.IsObject(w) && reach[cell]:
				if onFreeList[cell] {
					return fmt.Errorf("block %d: live object 0x%x on free list", bi, cell)
				}
			case heap.IsObject(w) && !reach[cell]:
				return fmt.Errorf("block %d: dead object 0x%x survived sweep", bi, cell)
			default: // free cell
				if !onFreeList[cell] {
					return fmt.Errorf("block %d: free cell 0x%x missing from free list", bi, cell)
				}
			}
		}
	}
	return nil
}

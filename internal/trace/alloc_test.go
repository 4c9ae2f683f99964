package trace

import (
	"testing"

	"hwgc/internal/heap"
)

// TestMarkQueuePushPopZeroAllocs guards the mark loop's fast path: the
// marker and tracer call Push/Pop for every traced reference, so the
// on-chip steady state (no spill traffic) must not allocate once the rings
// and the engine's event buffers are warm.
func TestMarkQueuePushPopZeroAllocs(t *testing.T) {
	eng, mq := newMQ(t, 64, 8, false)
	refs := make([]uint64, 32)
	for i := range refs {
		refs[i] = heap.VAHeapBase + uint64(i)*8
	}
	cycle := func() {
		for _, r := range refs {
			if !mq.Push(r) {
				t.Fatal("push refused with free on-chip capacity")
			}
		}
		for range refs {
			if _, ok := mq.Pop(); !ok {
				t.Fatal("pop failed with entries queued")
			}
		}
		eng.Run()
	}
	cycle() // warm rings, ticker state, engine buffers
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state Push/Pop = %.1f allocs/run, want 0", allocs)
	}
}

// TestMarkPhaseZeroAllocs guards the unit's request path: once a mark
// phase has warmed the slot free lists, rings and queues, a repeated mark
// of the same heap (every chunk read, translation, PTE fetch, status read
// and write-back) must not allocate, in the partitioned design and through
// the shared cache alike.
func TestMarkPhaseZeroAllocs(t *testing.T) {
	for _, shared := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.SharedCache = shared
		e := newEnv(t, cfg)
		buildGraph(e.sys, 3000, 1)
		mark := func() { runMark(t, e) }
		mark()
		if allocs := testing.AllocsPerRun(5, mark); allocs != 0 {
			t.Fatalf("shared cache %v: steady-state mark phase = %.1f allocs/run, want 0", shared, allocs)
		}
		if e.unit.Walker.Walks == 0 || e.unit.Marker.NewlyMarked == 0 || e.unit.Tracer.ChunkReqs == 0 {
			t.Fatalf("shared cache %v: mark phase did not exercise walks/marks/chunks", shared)
		}
	}
}

package sim

import "testing"

// TestQueuePushPopZeroAllocs guards the pipeline fast path: every timed
// unit moves work through Queue on every simulated cycle, so steady-state
// enqueue/dequeue must not allocate. Bounded queues never grow; unbounded
// queues grow only until the ring covers the working set.
func TestQueuePushPopZeroAllocs(t *testing.T) {
	bounded := NewQueue[uint64](64)
	unbounded := NewQueue[uint64](0)
	cycle := func() {
		for i := 0; i < 48; i++ {
			if !bounded.Push(uint64(i)) {
				t.Fatal("bounded push refused below capacity")
			}
			unbounded.Push(uint64(i))
		}
		for i := 0; i < 48; i++ {
			if _, ok := bounded.Pop(); !ok {
				t.Fatal("bounded pop failed with entries queued")
			}
			if _, ok := unbounded.Pop(); !ok {
				t.Fatal("unbounded pop failed with entries queued")
			}
		}
	}
	cycle() // warm the rings to the working-set occupancy
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state Push/Pop = %.1f allocs/run, want 0", allocs)
	}
}

// TestTickerWakeZeroAllocs guards the self-scheduling fast path: Wake is
// the most frequent operation in the whole simulator (every queue push and
// memory completion calls it), so scheduling the pre-bound run closure and
// draining it through the engine must not allocate once the engine's event
// buffers are warm.
func TestTickerWakeZeroAllocs(t *testing.T) {
	eng := NewEngine()
	steps := 0
	tick := NewTicker(eng, func() bool {
		steps++
		return steps%4 != 0 // re-arm a few cycles, then idle
	})
	cycle := func() {
		tick.Wake()
		eng.Run()
	}
	cycle() // warm the engine's curr/next buffers
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state Wake+Run = %.1f allocs/run, want 0", allocs)
	}
}

// TestFreeListReusesObjects guards the in-flight request slots: Get makes
// an object only when none is free, Put objects come back last in, first
// out, and a steady take-and-return pattern allocates nothing.
func TestFreeListReusesObjects(t *testing.T) {
	made := 0
	f := NewFreeList(func() *int { made++; return new(int) })
	a, b := f.Get(), f.Get()
	if made != 2 || a == b {
		t.Fatalf("two Gets on an empty list made %d objects (distinct: %v), want 2", made, a != b)
	}
	f.Put(a)
	f.Put(b)
	if got := f.Get(); got != b {
		t.Fatal("Get did not return the last object Put")
	}
	if got := f.Get(); got != a {
		t.Fatal("second Get did not return the first object Put")
	}
	f.Put(a)
	f.Put(b)
	cycle := func() {
		x, y, z := f.Get(), f.Get(), f.Get()
		f.Put(x)
		f.Put(y)
		f.Put(z)
	}
	cycle() // grow the list to three in flight
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state Get/Put = %.1f allocs/run, want 0", allocs)
	}
	if made != 3 {
		t.Fatalf("made %d objects for at most three in flight, want 3", made)
	}
}

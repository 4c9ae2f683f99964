package cache

import (
	"testing"

	"hwgc/internal/dram"
	"hwgc/internal/sim"
	"hwgc/internal/tilelink"
)

func newEventCache(mshrs int) (*sim.Engine, *Event) {
	eng := sim.NewEngine()
	m := dram.NewDDR3(eng, dram.DDR3_2000(16))
	bus := tilelink.New(eng, m)
	port := bus.NewPort("cache", 16)
	c := NewEvent(eng, 16<<10, 4, 2, 8, mshrs, port)
	return eng, c
}

func TestEventHitAndMiss(t *testing.T) {
	eng, c := newEventCache(32)
	var first, second uint64
	c.Access(Access{Addr: 0x1000, Size: 8, Source: "marker", Done: func(f uint64) {
		first = f
		c.Access(Access{Addr: 0x1000, Size: 8, Source: "marker", Done: func(f2 uint64) { second = f2 }})
	}})
	eng.Run()
	if first == 0 || second == 0 {
		t.Fatal("accesses did not complete")
	}
	if second-first > first {
		t.Fatalf("hit (%d cycles) not faster than miss (%d)", second-first, first)
	}
	if c.RequestsBySource["marker"] != 2 {
		t.Fatalf("source accounting = %v", c.RequestsBySource)
	}
	if c.MissesBySource["marker"] != 1 {
		t.Fatalf("miss accounting = %v", c.MissesBySource)
	}
}

func TestEventMSHRCoalescing(t *testing.T) {
	eng, c := newEventCache(32)
	done := 0
	for i := 0; i < 3; i++ {
		c.Access(Access{Addr: 0x2000 + uint64(i*8), Size: 8, Source: "tracer",
			Done: func(uint64) { done++ }})
	}
	eng.Run()
	if done != 3 {
		t.Fatalf("completions = %d, want 3", done)
	}
	// All three hit the same line: one fill, coalesced.
	if got := c.MissesBySource["tracer"]; got != 1 {
		t.Fatalf("misses = %d, want 1 (coalesced)", got)
	}
}

func TestEventMSHRLimitStalls(t *testing.T) {
	eng, c := newEventCache(1)
	done := 0
	for i := 0; i < 4; i++ {
		c.Access(Access{Addr: uint64(i) * 0x1000, Size: 8, Source: "x",
			Done: func(uint64) { done++ }})
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("completions = %d, want 4 (stall must not drop requests)", done)
	}
	if c.Stalls == 0 {
		t.Fatal("expected MSHR stalls with 1 MSHR and 4 distinct lines")
	}
}

func TestEventQueueBackpressure(t *testing.T) {
	eng, c := newEventCache(32)
	accepted := 0
	for i := 0; i < 100; i++ {
		if c.Access(Access{Addr: uint64(i) * 0x1000, Size: 8, Source: "x"}) {
			accepted++
		}
	}
	if accepted == 100 {
		t.Fatal("crossbar queue accepted unbounded requests")
	}
	eng.Run()
	if c.OutstandingMisses() != 0 {
		t.Fatalf("leaked MSHRs: %d", c.OutstandingMisses())
	}
}

func TestEventCrossbarSerializes(t *testing.T) {
	eng, c := newEventCache(32)
	// Warm two lines, then access both again: hits must still be spaced
	// by the single-ported crossbar.
	var times []uint64
	c.Access(Access{Addr: 0x100, Size: 8, Source: "a", Done: func(uint64) {}})
	c.Access(Access{Addr: 0x200, Size: 8, Source: "a", Done: func(uint64) {}})
	eng.Run()
	c.Access(Access{Addr: 0x100, Size: 8, Source: "a", Done: func(f uint64) { times = append(times, f) }})
	c.Access(Access{Addr: 0x200, Size: 8, Source: "a", Done: func(f uint64) { times = append(times, f) }})
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("completions = %d", len(times))
	}
	if times[1] == times[0] {
		t.Fatal("two hits completed in the same cycle through a single-ported crossbar")
	}
}

// TestEventZeroAllocs guards the shared cache's request path: once the
// MSHR slots, the hit ring and the engine's buffers are warm, hits, misses
// with dirty write-backs, and misses that coalesce into a pending MSHR
// must not allocate.
func TestEventZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	bus := tilelink.New(eng, dram.NewDDR3(eng, dram.DDR3_2000(16)))
	// Four direct-mapped lines: lines i and i+4 evict each other.
	c := NewEvent(eng, 4*LineSize, 1, 2, 8, 4, bus.NewPort("cache", 16))
	done := 0
	count := func(uint64) { done++ }
	access := func(line uint64, kind dram.Kind) {
		if !c.Access(Access{Addr: line * LineSize, Size: 8, Kind: kind, Source: "marker", Done: count}) {
			t.Fatal("crossbar queue full")
		}
	}
	streams := []struct {
		name   string
		misses uint64 // per run: coalesced accesses do not miss again
		run    func()
	}{
		{"hit", 0, func() {
			for i := 0; i < 4; i++ {
				access(1, dram.Read)
			}
		}},
		{"miss", 8, func() {
			for line := uint64(0); line < 8; line++ {
				access(line, dram.Write)
			}
		}},
		{"coalesce", 4, func() {
			for line := uint64(0); line < 8; line += 2 {
				access(line, dram.Read)
				access(line, dram.Read)
			}
		}},
	}
	for _, s := range streams {
		run := func() {
			s.run()
			eng.Run()
		}
		run()
		before, misses := done, c.state.Misses
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Fatalf("%s: %.1f allocs/run, want 0", s.name, allocs)
		}
		runs := uint64(101) // AllocsPerRun adds one warm-up run
		if got := c.state.Misses - misses; got != runs*s.misses {
			t.Fatalf("%s: %d misses over %d runs, want %d per run", s.name, got, runs, s.misses)
		}
		if done == before {
			t.Fatalf("%s: no access completed", s.name)
		}
	}
}

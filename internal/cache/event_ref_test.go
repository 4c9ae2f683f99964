package cache

import (
	"testing"

	"hwgc/internal/dram"
	"hwgc/internal/sim"
	"hwgc/internal/tilelink"
)

// mapEvent is the event-driven cache as it was before the MSHR slots and
// the hit ring: MSHRs in a map of waiter slices, and a fresh closure per
// hit and per fill. It is kept as the reference the slot-based Event must
// match exactly.
type mapEvent struct {
	eng    *sim.Engine
	state  *State
	hitLat uint64
	port   *tilelink.Port
	in     *sim.Queue[Access]
	tick   *sim.Ticker

	mshrMax int
	mshrs   map[uint64][]Access // line address -> waiters

	MissesBySource map[string]uint64
	Stalls         uint64
}

func newMapEvent(eng *sim.Engine, size, ways int, hitLat uint64, inputQ, mshrs int, port *tilelink.Port) *mapEvent {
	c := &mapEvent{
		eng:            eng,
		state:          NewState(size, ways),
		hitLat:         hitLat,
		port:           port,
		in:             sim.NewQueue[Access](inputQ),
		mshrMax:        mshrs,
		mshrs:          make(map[uint64][]Access),
		MissesBySource: make(map[string]uint64),
	}
	c.tick = sim.NewTicker(eng, c.step)
	port.SetOnSpace(func() { c.tick.Wake() })
	return c
}

func (c *mapEvent) Access(a Access) bool {
	if !c.in.Push(a) {
		return false
	}
	c.tick.Wake()
	return true
}

func (c *mapEvent) step() bool {
	a, ok := c.in.Peek()
	if !ok {
		return false
	}
	line := a.Addr / LineSize * LineSize
	if waiters, pending := c.mshrs[line]; pending {
		c.in.Pop()
		c.mshrs[line] = append(waiters, a)
		return !c.in.Empty()
	}
	write := a.Kind == dram.Write || a.Kind == dram.AMO
	if !c.state.Contains(line) {
		if len(c.mshrs) >= c.mshrMax || c.port.Free() < 2 {
			c.Stalls++
			return false
		}
	}
	hit, wb := c.state.Access(line, write)
	if hit {
		c.in.Pop()
		done := a.Done
		if done != nil {
			c.eng.After(c.hitLat, func() { done(c.eng.Now()) })
		}
		return !c.in.Empty()
	}
	c.MissesBySource[a.Source]++
	c.in.Pop()
	if wb {
		c.port.Issue(dram.Request{Addr: line, Size: LineSize, Kind: dram.Write})
	}
	c.mshrs[line] = []Access{a}
	c.port.Issue(dram.Request{Addr: line, Size: LineSize, Kind: dram.Read, Done: func(f uint64) {
		waiters := c.mshrs[line]
		delete(c.mshrs, line)
		for _, w := range waiters {
			if w.Done != nil {
				w.Done(f)
			}
		}
		c.tick.Wake()
	}})
	return !c.in.Empty()
}

// refAccess is one scripted request submitted at cycle at. When chain is
// set, its completion submits one more request from the script (a
// dependent access, as the page-table walker issues its next PTE read).
type refAccess struct {
	at    uint64
	addr  uint64
	kind  dram.Kind
	src   string
	done  bool // false: fire-and-forget, no Done callback
	chain bool
}

// refEventLog is what one cache produced for a script: every submission's
// acceptance and every completion's request id and cycle, in order.
type refEventLog struct {
	accepted []bool
	done     [][2]uint64
}

// runEventScript plays script through a cache built by mk (over its own
// engine, DDR3 model and port) and returns the log.
func runEventScript(script []refAccess, mk func(*sim.Engine, *tilelink.Port) func(Access) bool) (refEventLog, *sim.Engine) {
	eng := sim.NewEngine()
	bus := tilelink.New(eng, dram.NewDDR3(eng, dram.DDR3_2000(16)))
	access := mk(eng, bus.NewPort("cache", 4))
	var log refEventLog
	var submit func(id int, chained bool)
	submit = func(id int, chained bool) {
		r := script[id]
		a := Access{Addr: r.addr, Size: 8, Kind: r.kind, Source: r.src}
		if r.done {
			a.Done = func(f uint64) {
				log.done = append(log.done, [2]uint64{uint64(id), f})
				if r.chain && !chained {
					submit((id*7+3)%len(script), true)
				}
			}
		}
		log.accepted = append(log.accepted, access(a))
	}
	for id, r := range script {
		id := id
		eng.At(r.at, func() { submit(id, false) })
	}
	eng.Run()
	return log, eng
}

// TestEventMatchesMapReference drives the slot-based Event and the
// map-based reference with the same random streams of hits, misses,
// coalesced misses, dirty write-backs and dependent chains, under MSHR and
// queue pressure, and requires every acceptance and every Done's order and
// cycle to match.
func TestEventMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rng := sim.NewRand(seed)
		lines := 8 + rng.Intn(120) // working set in lines: all hits to thrashing
		mshrs := 1 + rng.Intn(8)
		var script []refAccess
		var at uint64
		for i := 0; i < 3000; i++ {
			at += uint64(rng.Intn(4))
			kind := dram.Read
			switch rng.Intn(6) {
			case 0:
				kind = dram.Write
			case 1:
				kind = dram.AMO
			}
			script = append(script, refAccess{
				at:    at,
				addr:  uint64(rng.Intn(lines))*LineSize + uint64(rng.Intn(8))*8,
				kind:  kind,
				src:   [...]string{"marker", "tracer", "ptw"}[rng.Intn(3)],
				done:  rng.Intn(5) != 0,
				chain: rng.Intn(8) == 0,
			})
		}

		var ev *Event
		got, gotEng := runEventScript(script, func(eng *sim.Engine, port *tilelink.Port) func(Access) bool {
			ev = NewEvent(eng, 2<<10, 2, 2, 4, mshrs, port)
			return ev.Access
		})
		var ref *mapEvent
		want, wantEng := runEventScript(script, func(eng *sim.Engine, port *tilelink.Port) func(Access) bool {
			ref = newMapEvent(eng, 2<<10, 2, 2, 4, mshrs, port)
			return ref.Access
		})

		if len(got.accepted) != len(want.accepted) {
			t.Fatalf("seed %d: %d submissions, reference %d", seed, len(got.accepted), len(want.accepted))
		}
		for i := range want.accepted {
			if got.accepted[i] != want.accepted[i] {
				t.Fatalf("seed %d: submission %d accepted=%v, reference %v", seed, i, got.accepted[i], want.accepted[i])
			}
		}
		if len(got.done) != len(want.done) {
			t.Fatalf("seed %d: %d completions, reference %d", seed, len(got.done), len(want.done))
		}
		for i := range want.done {
			if got.done[i] != want.done[i] {
				t.Fatalf("seed %d: completion %d = request %d at cycle %d, reference request %d at cycle %d",
					seed, i, got.done[i][0], got.done[i][1], want.done[i][0], want.done[i][1])
			}
		}
		if gotEng.Now() != wantEng.Now() || ev.Stalls != ref.Stalls || ev.state.Hits != ref.state.Hits ||
			ev.state.Misses != ref.state.Misses || sumMap(ev.MissesBySource) != sumMap(ref.MissesBySource) {
			t.Fatalf("seed %d: end cycle %d stalls %d hits %d misses %d; reference %d %d %d %d",
				seed, gotEng.Now(), ev.Stalls, ev.state.Hits, ev.state.Misses,
				wantEng.Now(), ref.Stalls, ref.state.Hits, ref.state.Misses)
		}
		if ev.Stalls == 0 || ev.state.Hits == 0 || ev.state.Misses == 0 {
			t.Fatalf("seed %d: stream did not exercise stalls/hits/misses: %d/%d/%d",
				seed, ev.Stalls, ev.state.Hits, ev.state.Misses)
		}
		if ev.OutstandingMisses() != 0 {
			t.Fatalf("seed %d: %d MSHRs still held after the run", seed, ev.OutstandingMisses())
		}
	}
}

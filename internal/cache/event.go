package cache

import (
	"hwgc/internal/dram"
	"hwgc/internal/sim"
	"hwgc/internal/telemetry"
	"hwgc/internal/tilelink"
)

// Access is one request into an event-driven cache. Source labels the
// requesting unit (marker, tracer, ptw, markq, sweeper) so the experiment
// for Figure 18a can attribute contention.
type Access struct {
	Addr   uint64
	Size   uint64
	Kind   dram.Kind
	Source string
	Done   func(finish uint64)
}

// Event is the event-driven shared cache from the paper's first traversal
// unit design: all units reach memory through one small cache behind a
// single-ported crossbar (one access serviced per cycle), with a limited
// number of MSHRs for outstanding misses.
//
// The paper found this design barely beats the CPU because page-table-walker
// misses drown out everyone else (Figure 18a); the partitioned design then
// gives the marker and tracer direct interconnect ports.
type Event struct {
	eng    *sim.Engine
	state  *State
	hitLat uint64
	port   *tilelink.Port
	in     *sim.Queue[Access]
	tick   *sim.Ticker

	// Hits complete after the fixed hitLat, so they finish in the order
	// they were serviced: their Done callbacks wait in a ring drained by
	// one bound event function instead of a closure per hit.
	hits  *sim.Queue[func(uint64)]
	hitFn func()

	// mshrMax fixed MSHR slots, each with its fill callback bound once.
	// active holds the occupied ones (a line is in at most one), free the
	// rest.
	mshrMax int
	active  []*mshr
	free    []*mshr

	// onSpace is invoked when an input-queue slot frees.
	onSpace func()

	// RequestsBySource counts crossbar requests per unit label.
	RequestsBySource map[string]uint64
	// MissesBySource counts misses per unit label.
	MissesBySource map[string]uint64
	// Stalls counts cycles the crossbar could not service its head
	// access (MSHRs or downstream port full).
	Stalls uint64

	tel     *telemetry.Tracer // nil = tracing disabled (fast path)
	telUnit string            // "cache.<name>", precomputed at attach
}

// mshrWaiters is the waiter capacity each MSHR starts with; a slot that
// coalesces more accesses grows its slice once and keeps it.
const mshrWaiters = 8

// mshr is one miss-status holding register: the line being filled and the
// accesses waiting for it, in arrival order. The waiter slice is reused
// across fills.
type mshr struct {
	line    uint64
	start   uint64 // fill issue cycle (set and read only when tracing)
	waiters []Access
	fill    func(finish uint64)
}

// NewEvent returns an event-driven cache of the given size/ways, hit latency
// hitLat, inputQ entries of crossbar queueing, mshrs outstanding misses, and
// a downstream interconnect port.
func NewEvent(eng *sim.Engine, size, ways int, hitLat uint64, inputQ, mshrs int, port *tilelink.Port) *Event {
	c := &Event{
		eng:              eng,
		state:            NewState(size, ways),
		hitLat:           hitLat,
		port:             port,
		in:               sim.NewQueue[Access](inputQ),
		hits:             sim.NewQueue[func(uint64)](0),
		mshrMax:          mshrs,
		active:           make([]*mshr, 0, mshrs),
		free:             make([]*mshr, 0, mshrs),
		RequestsBySource: make(map[string]uint64),
		MissesBySource:   make(map[string]uint64),
	}
	c.tick = sim.NewTicker(eng, c.step)
	c.hitFn = func() {
		done, _ := c.hits.Pop()
		done(c.eng.Now())
	}
	slots := make([]mshr, mshrs)
	waiters := make([]Access, mshrs*mshrWaiters)
	for i := range slots {
		m := &slots[i]
		m.waiters = waiters[i*mshrWaiters : i*mshrWaiters : (i+1)*mshrWaiters]
		m.fill = func(f uint64) { c.fill(m, f) }
		c.free = append(c.free, m)
	}
	port.SetOnSpace(func() { c.tick.Wake() })
	return c
}

// State exposes the tag array.
func (c *Event) State() *State { return c.state }

// Access submits a request. It returns false when the crossbar queue is
// full; callers retry when their own issue ticker runs again.
//
//hwgc:hotpath
func (c *Event) Access(a Access) bool {
	if !c.in.Push(a) {
		return false
	}
	c.RequestsBySource[a.Source]++
	c.tick.Wake()
	return true
}

// Free returns free crossbar queue slots.
func (c *Event) Free() int { return c.in.Free() }

// SetOnSpace registers a callback invoked when an input-queue slot frees.
func (c *Event) SetOnSpace(fn func()) { c.onSpace = fn }

// step services one access per cycle.
//
//hwgc:hotpath
func (c *Event) step() bool {
	a, ok := c.in.Peek()
	if !ok {
		return false
	}
	line := a.Addr / LineSize * LineSize

	// Coalesce into an existing MSHR for the same line.
	for _, m := range c.active {
		if m.line == line {
			c.popInput()
			m.waiters = append(m.waiters, a)
			return !c.in.Empty()
		}
	}

	write := a.Kind == dram.Write || a.Kind == dram.AMO
	if !c.state.Contains(line) {
		// Miss path: check resources before committing any state so a
		// stalled access retries cleanly. Conservatively require two
		// port slots (fill + possible dirty write-back).
		if len(c.active) >= c.mshrMax || c.port.Free() < 2 {
			c.Stalls++
			return false
		}
	}
	hit, wb := c.state.Access(line, write)
	if hit {
		c.popInput()
		if a.Done != nil {
			c.hits.Push(a.Done)
			c.eng.After(c.hitLat, c.hitFn)
		}
		return !c.in.Empty()
	}
	c.MissesBySource[a.Source]++
	c.popInput()
	if wb {
		c.port.Issue(dram.Request{Addr: line, Size: LineSize, Kind: dram.Write})
	}
	m := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.active = append(c.active, m)
	m.line = line
	m.waiters = append(m.waiters, a)
	if c.tel != nil {
		m.start = c.eng.Now()
	}
	c.port.Issue(dram.Request{Addr: line, Size: LineSize, Kind: dram.Read, Done: m.fill})
	return !c.in.Empty()
}

// fill completes m's line: the MSHR frees, then its waiters finish in
// arrival order.
//
//hwgc:hotpath
func (c *Event) fill(m *mshr, f uint64) {
	if c.tel != nil {
		c.tel.Complete1(c.telUnit, "miss-fill", m.start, c.eng.Now(), "line", m.line)
	}
	for i, s := range c.active {
		if s == m {
			last := len(c.active) - 1
			c.active[i] = c.active[last]
			c.active[last] = nil
			c.active = c.active[:last]
			break
		}
	}
	for _, w := range m.waiters {
		if w.Done != nil {
			w.Done(f)
		}
	}
	clear(m.waiters)
	m.waiters = m.waiters[:0]
	c.free = append(c.free, m)
	c.tick.Wake()
}

func (c *Event) popInput() {
	c.in.Pop()
	if c.onSpace != nil {
		c.onSpace()
	}
}

// OutstandingMisses returns the number of occupied MSHRs.
func (c *Event) OutstandingMisses() int { return len(c.active) }

// AttachTelemetry registers the cache's metrics under cache.<name>.* and
// enables miss-fill trace spans on the unit's track. Per-source counters
// are registered as aggregates (request and miss totals) so sampling stays
// deterministic regardless of map iteration order.
func (c *Event) AttachTelemetry(h *telemetry.Hub, name string) {
	if h == nil {
		return
	}
	c.tel = h.Tracer()
	c.telUnit = "cache." + name
	reg := h.Registry()
	prefix := c.telUnit + "."
	reg.CounterFunc(prefix+"requests", func() uint64 { return sumMap(c.RequestsBySource) })
	reg.CounterFunc(prefix+"misses", func() uint64 { return sumMap(c.MissesBySource) })
	reg.CounterFunc(prefix+"stalls", func() uint64 { return c.Stalls })
	reg.Gauge(prefix+"inq.occupancy", func() float64 { return float64(c.in.Len()) })
	reg.Gauge(prefix+"mshrs", func() float64 { return float64(len(c.active)) })
}

func sumMap(m map[string]uint64) uint64 {
	var s uint64
	for _, v := range m {
		s += v
	}
	return s
}

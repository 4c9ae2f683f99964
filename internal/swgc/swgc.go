// Package swgc is the software baseline collector: the paper's Mark & Sweep
// GC rewritten in C and run on the in-order Rocket core (Section VI-A
// methodology). It is a real collector — it marks the simulated heap and
// rebuilds the free lists in simulated memory — while charging every memory
// operation and instruction to the trace-driven CPU model.
//
// The mark phase is the classic breadth-first traversal: pop a reference
// from the in-memory mark queue, test-and-set the mark bit in the status
// word, and push the outbound references. On the CPU this is control-flow
// limited: the mark test is an unpredictable branch, and the blocking cache
// exposes every status-word miss serially.
package swgc

import (
	"hwgc/internal/cpu"
	"hwgc/internal/dram"
	"hwgc/internal/heap"
	"hwgc/internal/rts"
)

// Result reports one collection's timing and work.
type Result struct {
	MarkCycles  uint64
	SweepCycles uint64
	Marked      uint64 // objects marked
	Visited     uint64 // mark-queue pops (includes duplicates)
	FreedCells  uint64
	LiveCells   uint64
}

// TotalCycles returns mark + sweep time.
func (r Result) TotalCycles() uint64 { return r.MarkCycles + r.SweepCycles }

// Collector runs stop-the-world Mark & Sweep on a CPU model.
type Collector struct {
	sys *rts.System
	cpu *cpu.CPU

	queueVA      uint64
	queueEntries int

	// MarkProbes, when non-nil, counts status-word accesses per object
	// (the access-frequency data behind Figure 21a).
	MarkProbes map[heap.Ref]int
}

// New creates a collector. queueEntries sizes the in-memory ring buffer
// that models the software mark queue's cache footprint.
func New(sys *rts.System, c *cpu.CPU, queueEntries int) *Collector {
	if queueEntries <= 0 {
		queueEntries = 1 << 14
	}
	qva := sys.Heap.Aux.Alloc(uint64(8 * queueEntries))
	if qva == 0 {
		panic("swgc: aux space exhausted allocating mark queue")
	}
	return &Collector{sys: sys, cpu: c, queueVA: qva, queueEntries: queueEntries}
}

// Collect performs one full stop-the-world collection: flip the mark sense,
// mark from the roots in the hwgc-space, sweep the MarkSweep space, and
// resynchronize the runtime's block mirrors.
func (g *Collector) Collect() Result {
	g.sys.Heap.FlipSense()
	var res Result
	start := g.cpu.Now()
	g.mark(&res)
	res.MarkCycles = g.cpu.Now() - start

	start = g.cpu.Now()
	g.sweep(&res)
	res.SweepCycles = g.cpu.Now() - start

	g.sys.Heap.MS.SyncFromMemory()
	return res
}

// MarkOnly runs just the mark phase (used by experiments that isolate
// traversal performance).
func (g *Collector) MarkOnly() Result {
	g.sys.Heap.FlipSense()
	var res Result
	start := g.cpu.Now()
	g.mark(&res)
	res.MarkCycles = g.cpu.Now() - start
	return res
}

// markQueue models the software work queue: a Go-side deque whose accesses
// are charged against a ring-buffer region in the aux space.
type markQueue struct {
	g       *Collector
	buf     []heap.Ref
	pushIdx uint64
	popIdx  uint64
}

func (q *markQueue) push(r heap.Ref) {
	slot := q.g.queueVA + (q.pushIdx%uint64(q.g.queueEntries))*8
	q.g.cpu.Access(slot, 8, dram.Write)
	q.g.cpu.Compute(2) // index update, bounds check
	q.pushIdx++
	q.buf = append(q.buf, r)
}

func (q *markQueue) pop() (heap.Ref, bool) {
	if len(q.buf) == 0 {
		return 0, false
	}
	slot := q.g.queueVA + (q.popIdx%uint64(q.g.queueEntries))*8
	q.g.cpu.Access(slot, 8, dram.Read)
	q.g.cpu.Compute(2)
	q.popIdx++
	r := q.buf[0]
	q.buf = q.buf[1:]
	return r, true
}

func (g *Collector) mark(res *Result) {
	h := g.sys.Heap
	q := &markQueue{g: g}

	// Read the roots out of the hwgc-space.
	for i := 0; i < g.sys.Roots.Count(); i++ {
		g.cpu.Access(g.sys.Roots.SlotVA(i), 8, dram.Read)
		g.cpu.Compute(2) // null test + loop
		r := g.sys.Roots.At(i)
		if r != 0 {
			q.push(r)
		}
	}

	tib := h.Config().Layout == heap.TIBLayout
	for {
		obj, ok := q.pop()
		if !ok {
			break
		}
		res.Visited++
		g.cpu.Compute(3) // loop control

		statusVA := h.StatusAddr(obj)
		g.cpu.Access(statusVA, 8, dram.Read)
		g.cpu.Compute(1) // mark test
		if g.MarkProbes != nil {
			g.MarkProbes[obj]++
		}
		status := h.Load(statusVA)
		if h.IsMarkedStatus(status) {
			// Already marked: the less common, poorly predicted arm.
			g.cpu.Mispredict()
			continue
		}
		// Set the mark bit (store; the CPU version uses a plain RMW
		// since the world is stopped).
		h.MarkAMO(statusVA)
		g.cpu.Access(statusVA, 8, dram.Write)
		g.cpu.Compute(1)
		res.Marked++

		n := heap.NumRefs(status)
		g.cpu.Compute(2) // extract #refs, set up loop
		if tib {
			// Conventional layout: find the reference offsets via
			// the TIB — the two extra accesses per object the
			// bidirectional layout removes.
			g.cpu.Access(obj, 8, dram.Read) // TIB pointer
			tibVA := h.TIBOf(obj)
			g.cpu.Access(tibVA, 8, dram.Read) // reference count word
			for i := 0; i < n; i++ {
				g.cpu.Access(tibVA+uint64(8*(1+i)), 8, dram.Read) // offset entry
				g.cpu.Compute(1)
			}
		}
		for i := 0; i < n; i++ {
			slot := h.RefSlotAddr(obj, i)
			g.cpu.Access(slot, 8, dram.Read)
			g.cpu.Compute(2) // null test + loop
			t := h.Load(slot)
			if t != 0 {
				q.push(t)
			}
		}
	}
}

func (g *Collector) sweep(res *Result) {
	h := g.sys.Heap
	ms := h.MS
	for bi := 0; bi < ms.NumBlocks(); bi++ {
		entry := ms.EntryVA(bi)
		g.cpu.Access(entry, 8, dram.Read)   // base
		g.cpu.Access(entry+8, 8, dram.Read) // cell size
		g.cpu.Compute(4)
		b := ms.Block(bi)

		freeHead := uint64(0)
		live := uint64(0)
		for i := 0; i < b.Cells; i++ {
			cell := b.Base + uint64(i)*b.CellSize
			status := h.StatusAddr(cell)
			g.cpu.Access(status, 8, dram.Read)
			g.cpu.Compute(2) // classify cell
			w := h.Load(status)
			if heap.IsObject(w) && h.IsMarkedStatus(w) {
				live++
				continue
			}
			// Dead object or already-free cell: link into the
			// (rebuilt) free list, head-first.
			h.Store(cell, freeHead)
			g.cpu.Access(cell, 8, dram.Write)
			freeHead = cell
			if heap.IsObject(w) {
				res.FreedCells++
				if status != cell {
					// The TIB layout keeps the status word apart from the
					// link word: clear it, or the free cell still reads
					// as an object.
					h.Store(status, 0)
					g.cpu.Access(status, 8, dram.Write)
				}
			}
		}
		res.LiveCells += live
		h.Store(entry+16, freeHead)
		h.Store(entry+24, live)
		g.cpu.Access(entry+16, 8, dram.Write)
		g.cpu.Access(entry+24, 8, dram.Write)
		g.cpu.Compute(2)
	}
}

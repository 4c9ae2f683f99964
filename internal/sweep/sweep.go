// Package sweep implements the paper's Reclamation Unit (Figure 8): a
// block-list reader distributing block descriptors to a set of parallel
// block sweepers. Each sweeper is a small state machine that streams
// through a block's cells, classifies each cell from its first word (free
// cell, dead object, or live marked object), links dead and free cells into
// the block's free list, and writes the updated descriptor back.
//
// Like the traversal unit, the sweepers are functional: they rebuild the
// actual free lists in simulated memory, so results can be cross-checked
// against the software collector.
package sweep

import (
	"hwgc/internal/cache"
	"hwgc/internal/dram"
	"hwgc/internal/heap"
	"hwgc/internal/rts"
	"hwgc/internal/sim"
	"hwgc/internal/telemetry"
	"hwgc/internal/tilelink"
	"hwgc/internal/vmem"
)

// Config parameterizes the reclamation unit.
type Config struct {
	Sweepers     int // parallel block sweepers (paper baseline: 2)
	TLBEntries   int
	L2TLBEntries int
	PortDepth    int
	// OutstandingReads bounds each sweeper's in-flight cell-scan reads.
	// The paper's sweepers are small serial state machines (1).
	OutstandingReads int
	// CellCycles is the FSM overhead per cell (classification, address
	// generation, free-list pointer update).
	CellCycles uint64
	// BatchLines lets a sweeper fetch whole 64-byte lines covering
	// several small cells per probe instead of one word per cell — an
	// optimization beyond the paper's serial FSM (ablation knob).
	BatchLines bool
}

// DefaultConfig returns the paper's baseline (2 sweepers).
func DefaultConfig() Config {
	return Config{Sweepers: 2, TLBEntries: 16, L2TLBEntries: 64, PortDepth: 8,
		OutstandingReads: 1, CellCycles: 4}
}

// Unit is the assembled reclamation unit.
type Unit struct {
	eng *sim.Engine
	sys *rts.System
	cfg Config

	Walker   *vmem.Walker
	PTWPort  *tilelink.Port
	PTWCache *cache.Event
	sweepers []*sweeper

	nextBlock int
	numBlocks int

	// Stats.
	CellsScanned uint64
	CellsFreed   uint64
	CellsLive    uint64
	BlocksSwept  uint64
}

// AttachTelemetry registers the reclamation unit's metrics under sweep.* and
// enables per-block trace spans, one per sweeper track, covering descriptor
// load through descriptor write-back.
func (u *Unit) AttachTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	reg := h.Registry()
	tel := h.Tracer()
	reg.CounterFunc("sweep.cellsscanned", func() uint64 { return u.CellsScanned })
	reg.CounterFunc("sweep.cellsfreed", func() uint64 { return u.CellsFreed })
	reg.CounterFunc("sweep.cellslive", func() uint64 { return u.CellsLive })
	reg.CounterFunc("sweep.blocksswept", func() uint64 { return u.BlocksSwept })
	reg.Gauge("sweep.blocksleft", func() float64 { return float64(u.numBlocks - u.nextBlock) })
	for _, sw := range u.sweepers {
		sw.tel = tel
		sw.telUnit = "sweep." + sweeperName(sw.id)
		sw := sw
		reg.Gauge(sw.telUnit+".pendingwrites", func() float64 { return float64(sw.pwLen()) })
	}
	u.Walker.AttachTelemetry(h, "sweep")
	u.PTWCache.AttachTelemetry(h, "sweep-ptw")
}

// NewUnit wires a reclamation unit into the bus.
func NewUnit(eng *sim.Engine, bus *tilelink.Bus, sys *rts.System, cfg Config) *Unit {
	u := &Unit{eng: eng, sys: sys, cfg: cfg}
	u.PTWPort = bus.NewPort("sweep-ptw", 4)
	u.PTWCache = cache.NewEvent(eng, 8<<10, 4, 1, 8, 4, u.PTWPort)
	u.Walker = vmem.NewWalker(eng, sys.PT, u.PTWCache, nil, vmem.NewTLB(cfg.L2TLBEntries))
	for i := 0; i < cfg.Sweepers; i++ {
		sw := newSweeper(u, i, bus.NewPort(sweeperName(i), cfg.PortDepth),
			vmem.NewTranslator(eng, vmem.NewTLB(cfg.TLBEntries), u.Walker))
		u.sweepers = append(u.sweepers, sw)
	}
	return u
}

func sweeperName(i int) string { return "sweep" + string(rune('0'+i)) }

// StartSweep launches the sweep over the block table described by dc.
func (u *Unit) StartSweep(dc rts.DriverConfig) {
	u.nextBlock = 0
	u.numBlocks = dc.NumBlocks
	for _, sw := range u.sweepers {
		sw.tick.Wake()
	}
}

// Drained reports completion (assert after the engine idles).
func (u *Unit) Drained() bool {
	if u.nextBlock < u.numBlocks {
		return false
	}
	for _, sw := range u.sweepers {
		if !sw.idle() {
			return false
		}
	}
	return true
}

// claimBlock hands the next unswept block index to a sweeper, or -1.
func (u *Unit) claimBlock() int {
	if u.nextBlock >= u.numBlocks {
		return -1
	}
	i := u.nextBlock
	u.nextBlock++
	return i
}

type sweeperState uint8

const (
	swIdle sweeperState = iota
	swLoadDesc
	swScan
	swWriteback
)

// transOp selects the continuation run when the sweeper's pre-bound
// translation callback fires. The FSM keeps at most one translation in
// flight (pendingT), so a single op tag plus operand fields replaces the
// per-call closures the hot path used to allocate.
type transOp uint8

const (
	transDescRead transOp = iota
	transScan
	transFreeWrite
	transDescWrite
)

// scanSlot carries one in-flight cell-scan read. Its callbacks are bound
// once when the slot is created, so issuing, retrying, and classifying a
// scan never allocates; the slot pool grows on demand and is reused.
type scanSlot struct {
	sw    *sweeper
	pa    uint64
	size  uint64
	first int
	n     int

	issue    func() // try the port; on full, back off one cycle
	reissue  func() // retry entry: re-take the in-flight slot, then issue
	done     func(uint64)
	classify func()
}

// sweeper scans one block at a time.
type sweeper struct {
	u    *Unit
	id   int
	port *tilelink.Port
	tr   *vmem.Translator
	tick *sim.Ticker

	state    sweeperState
	block    int
	base     uint64 // block base VA
	cellSize uint64
	cells    int

	scanned  int // cells whose word0 has been requested
	resolved int // cells processed from responses
	inflight int
	writeOut bool     // a free-list write is outstanding (serial FSM)
	pendingW []uint64 // FIFO of free-list writes to issue (cell VAs)
	pwHead   int
	freeHead uint64
	live     uint64
	pendingT bool

	// Pre-bound translation continuation + operands (see transOp).
	transOp   transOp
	transDone bool
	transCb   func(pa uint64, ok bool)
	tSize     uint64 // pending scan operands, consumed by issueScan
	tFirst    int
	tN        int

	// Serial descriptor / free-list write state with pre-bound callbacks
	// (each op class has at most one request outstanding).
	descVA        uint64 // entry VA of the in-flight descriptor read
	descPA        uint64
	fwPA          uint64
	descReadIss   func()
	descReadRe    func()
	descReadDone  func(uint64)
	descWriteIss  func()
	descWriteDone func(uint64)
	fwIss         func()
	fwDone        func(uint64)

	slots sim.FreeList[scanSlot]

	tel        *telemetry.Tracer // nil = tracing disabled (fast path)
	telUnit    string            // "sweep.sweep<i>", precomputed at attach
	blockStart uint64            // cycle the current block was claimed
}

func newSweeper(u *Unit, id int, port *tilelink.Port, tr *vmem.Translator) *sweeper {
	sw := &sweeper{u: u, id: id, port: port, tr: tr}
	sw.tick = sim.NewTicker(u.eng, sw.step)
	sw.slots = sim.NewFreeList(sw.newScanSlot)
	port.SetOnSpace(func() { sw.tick.Wake() })

	sw.transCb = func(pa uint64, ok bool) {
		if !ok {
			panic("sweep: page fault")
		}
		sw.pendingT = false
		sw.transDone = true
		switch sw.transOp {
		case transDescRead:
			sw.issueDescRead(pa)
		case transScan:
			sw.issueScan(pa)
		case transFreeWrite:
			sw.issueFreeWrite(pa)
		case transDescWrite:
			sw.issueDescWrite(pa)
		}
		sw.tick.Wake()
	}

	sw.descReadDone = func(uint64) {
		h := sw.u.sys.Heap
		entryVA := sw.descVA
		sw.base = h.Load(entryVA)
		sw.cellSize = h.Load(entryVA + 8)
		sw.cells = int(h.MS.BlockBytes() / sw.cellSize)
		sw.scanned, sw.resolved = 0, 0
		sw.freeHead = 0
		sw.live = 0
		sw.inflight--
		sw.state = swScan
		sw.tick.Wake()
	}
	sw.descReadIss = func() {
		if !sw.port.Issue(dram.Request{Addr: sw.descPA, Size: 32, Kind: dram.Read,
			Done: sw.descReadDone}) {
			sw.inflight--
			sw.u.eng.After(1, sw.descReadRe)
		}
	}
	sw.descReadRe = func() {
		sw.inflight++
		sw.descReadIss()
	}

	sw.descWriteDone = func(uint64) {
		sw.u.BlocksSwept++
		if sw.tel != nil {
			sw.tel.Complete3(sw.telUnit, "sweep-block", sw.blockStart, sw.u.eng.Now(),
				"block", uint64(sw.block), "cells", uint64(sw.cells), "live", sw.live)
		}
		sw.state = swIdle
		sw.tick.Wake()
	}
	sw.descWriteIss = func() {
		if !sw.port.Issue(dram.Request{Addr: sw.descPA, Size: 16, Kind: dram.Write,
			Done: sw.descWriteDone}) {
			sw.u.eng.After(1, sw.descWriteIss)
		}
	}

	sw.fwDone = func(uint64) {
		sw.writeOut = false
		sw.tick.Wake()
	}
	sw.fwIss = func() {
		if !sw.port.Issue(dram.Request{Addr: sw.fwPA, Size: 8, Kind: dram.Write,
			Done: sw.fwDone}) {
			sw.u.eng.After(1, sw.fwIss)
		}
	}
	return sw
}

// newScanSlot builds a slot with its callbacks bound once.
func (sw *sweeper) newScanSlot() *scanSlot {
	s := &scanSlot{sw: sw}
	s.issue = func() {
		if !sw.port.Issue(dram.Request{Addr: s.pa, Size: s.size, Kind: dram.Read,
			Done: s.done}) {
			sw.inflight--
			sw.u.eng.After(1, s.reissue)
		}
	}
	s.reissue = func() {
		sw.inflight++
		s.issue()
	}
	s.done = func(uint64) {
		// FSM classification time per cell before the next probe.
		sw.u.eng.After(sw.u.cfg.CellCycles*uint64(s.n), s.classify)
	}
	s.classify = func() {
		sw.processCells(s.first, s.n)
		sw.inflight--
		sw.slots.Put(s)
		sw.tick.Wake()
	}
	return s
}

// pwLen returns the queued free-list writes.
func (sw *sweeper) pwLen() int { return len(sw.pendingW) - sw.pwHead }

func (sw *sweeper) idle() bool {
	return sw.state == swIdle && sw.inflight == 0 && sw.pwLen() == 0 &&
		!sw.pendingT && !sw.writeOut
}

// chunkCells returns how many cells one scan read covers and its size. The
// paper's sweeper is a serial FSM probing the first word of each cell; with
// BatchLines set, small power-of-two cells are fetched a full 64-byte line
// at a time instead (their first words are line-aligned).
func (sw *sweeper) chunkCells() (n int, size uint64) {
	if sw.u.cfg.BatchLines && sw.cellSize < 64 && 64%sw.cellSize == 0 {
		return int(64 / sw.cellSize), 64
	}
	return 1, 8
}

// step performs at most one memory operation per cycle.
//
//hwgc:hotpath
func (sw *sweeper) step() bool {
	if sw.pendingT {
		return false
	}
	switch sw.state {
	case swIdle:
		b := sw.u.claimBlock()
		if b < 0 {
			return false
		}
		sw.block = b
		if sw.tel != nil {
			sw.blockStart = sw.u.eng.Now()
		}
		sw.state = swLoadDesc
		return sw.loadDescriptor()
	case swLoadDesc:
		return false // waiting for the descriptor response
	case swScan:
		// The FSM is serial: it waits for its free-list write to
		// complete before probing the next cell.
		if sw.writeOut {
			return false
		}
		if sw.pwLen() > 0 {
			cell := sw.pendingW[sw.pwHead]
			if !sw.translateThen(cell, transFreeWrite) {
				return false
			}
			sw.pwHead++
			if sw.pwHead == len(sw.pendingW) {
				sw.pendingW = sw.pendingW[:0]
				sw.pwHead = 0
			}
			return true
		}
		if sw.scanned < sw.cells && sw.inflight < sw.u.cfg.OutstandingReads {
			n, size := sw.chunkCells()
			if n > sw.cells-sw.scanned {
				n = sw.cells - sw.scanned
			}
			va := sw.base + uint64(sw.scanned)*sw.cellSize
			sw.tSize, sw.tFirst, sw.tN = size, sw.scanned, n
			if !sw.translateThen(va, transScan) {
				return false
			}
			sw.scanned += n
			return true
		}
		if sw.scanned == sw.cells && sw.resolved == sw.cells && sw.inflight == 0 && sw.pwLen() == 0 {
			sw.state = swWriteback
			return sw.writeDescriptor()
		}
		return false
	case swWriteback:
		return false
	}
	return false
}

// translateThen resolves va and runs the op continuation with the physical
// address; it returns false when the translator is busy (retry after wake).
// At most one translation is outstanding per sweeper, so the continuation
// and its operands live in sweeper fields instead of a per-call closure.
func (sw *sweeper) translateThen(va uint64, op transOp) bool {
	sw.transOp = op
	sw.transDone = false
	if !sw.tr.Translate(va, sw.transCb) {
		return false
	}
	if !sw.transDone {
		sw.pendingT = true
	}
	return true
}

func (sw *sweeper) loadDescriptor() bool {
	sw.descVA = sw.u.sys.Heap.MS.EntryVA(sw.block)
	return sw.translateThen(sw.descVA, transDescRead)
}

func (sw *sweeper) issueDescRead(pa uint64) {
	sw.inflight++
	sw.descPA = pa
	sw.descReadIss()
}

func (sw *sweeper) issueScan(pa uint64) {
	sw.inflight++
	s := sw.slots.Get()
	s.pa, s.size, s.first, s.n = pa, sw.tSize, sw.tFirst, sw.tN
	s.issue()
}

// processCells classifies the cells covered by one response. Live marked
// objects are skipped; dead objects and existing free cells are linked into
// the rebuilt free list (the functional store happens here; the write
// request is issued by the scan loop, one per cycle).
func (sw *sweeper) processCells(first, n int) {
	h := sw.u.sys.Heap
	for i := 0; i < n; i++ {
		cell := sw.base + uint64(first+i)*sw.cellSize
		w := h.Load(cell)
		sw.u.CellsScanned++
		if heap.IsObject(w) && h.IsMarkedStatus(w) {
			sw.live++
			sw.u.CellsLive++
		} else {
			if heap.IsObject(w) {
				sw.u.CellsFreed++
			}
			h.Store(cell, sw.freeHead)
			sw.freeHead = cell
			sw.pendingW = append(sw.pendingW, cell)
		}
		sw.resolved++
	}
}

func (sw *sweeper) issueFreeWrite(pa uint64) {
	sw.writeOut = true
	sw.fwPA = pa
	sw.fwIss()
}

// writeDescriptor stores the rebuilt free-list head and live count (a
// single aligned 16-byte write at entry+16).
func (sw *sweeper) writeDescriptor() bool {
	h := sw.u.sys.Heap
	entry := h.MS.EntryVA(sw.block)
	h.Store(entry+16, sw.freeHead)
	h.Store(entry+24, sw.live)
	return sw.translateThen(entry+16, transDescWrite)
}

func (sw *sweeper) issueDescWrite(pa uint64) {
	sw.descPA = pa
	sw.descWriteIss()
}

// Package trace implements the paper's Traversal Unit: the hardware mark
// phase. It consists of a marker and a tracer decoupled through queues
// (Figure 7), a mark queue that spills to a physical memory region when it
// fills (Figure 12), per-unit TLBs behind a shared page-table walker, an
// optional mark-bit cache (Figure 21), and optional address compression
// that halves spill traffic (Figure 19).
package trace

import (
	"hwgc/internal/dram"
	"hwgc/internal/mem"
	"hwgc/internal/sim"
	"hwgc/internal/telemetry"
)

// SpillConfig locates the driver-allocated physical spill region and
// selects reference compression.
type SpillConfig struct {
	Base uint64 // physical
	Size uint64 // bytes, multiple of 64
	// Compress stores references as 32-bit word offsets from
	// CompressBase, doubling the effective queue size and halving spill
	// traffic (Section V-C).
	Compress     bool
	CompressBase uint64
}

// EntryBytes returns the in-memory size of one spilled reference.
func (c SpillConfig) EntryBytes() uint64 {
	if c.Compress {
		return 4
	}
	return 8
}

// MarkQueue is the traversal unit's frontier with spilling: the main
// on-chip queue Q, plus small inQ/outQ staging queues and a state machine
// that moves full bursts between outQ and the spill region (writes take
// priority, which avoids deadlock), refills inQ when the region holds
// entries, and copies outQ directly to inQ when it does not.
type MarkQueue struct {
	eng    *sim.Engine
	mem    *mem.Physical
	issuer memIssuer
	cfg    SpillConfig

	q    *sim.Queue[uint64]
	inQ  *sim.Queue[uint64]
	outQ *sim.Queue[uint64]

	head, tail    uint64 // ring offsets into the spill region
	stored        uint64 // entries resident in the region
	refillPending bool

	// The one outstanding refill read: its burst address, its issue cycle
	// (set and read only when tracing), and its completion, bound once.
	refillAddr  uint64
	refillStart uint64
	refillFn    func(uint64)

	reserved int // slots promised to in-flight tracer chunks

	tick *sim.Ticker

	// notifyAvail wakes consumers (the marker) when entries appear;
	// notifySpace wakes producers (the tracer) when space frees.
	notifyAvail func()
	notifySpace func()

	// Stats.
	SpillWriteReqs uint64
	SpillReadReqs  uint64
	SpilledEntries uint64
	DirectCopies   uint64
	PeakDepth      int

	tel   *telemetry.Tracer // nil = tracing disabled (fast path)
	rPush *telemetry.Rate
}

// NewMarkQueue builds a mark queue. mainEntries sizes Q, stageEntries sizes
// inQ and outQ each. issuer carries spill traffic (physical addresses).
func NewMarkQueue(eng *sim.Engine, m *mem.Physical, issuer memIssuer, cfg SpillConfig, mainEntries, stageEntries int) *MarkQueue {
	if cfg.Size%64 != 0 || cfg.Base%64 != 0 {
		panic("trace: spill region must be 64-byte aligned")
	}
	// The staging queues must hold at least two spill bursts: the tracer
	// throttle asserts at 3/4 occupancy, and a full burst must still fit
	// below that watermark or the spill state machine can never fire
	// (deadlocking the marker<->tracer<->queue cycle).
	minStage := 2 * int(64/cfg.EntryBytes())
	if stageEntries < minStage {
		stageEntries = minStage
	}
	mq := &MarkQueue{
		eng:    eng,
		mem:    m,
		issuer: issuer,
		cfg:    cfg,
		q:      sim.NewQueue[uint64](mainEntries),
		inQ:    sim.NewQueue[uint64](stageEntries),
		outQ:   sim.NewQueue[uint64](stageEntries),
	}
	mq.tick = sim.NewTicker(eng, mq.step)
	mq.refillFn = mq.refilled
	return mq
}

// SetNotify registers consumer/producer wake callbacks.
func (mq *MarkQueue) SetNotify(avail, space func()) {
	mq.notifyAvail = avail
	mq.notifySpace = space
}

// Wake schedules the spill state machine (wired to downstream OnSpace).
func (mq *MarkQueue) Wake() { mq.tick.Wake() }

func (mq *MarkQueue) burstEntries() int { return int(64 / mq.cfg.EntryBytes()) }

// Len returns the entries currently queued on-chip and in the spill region.
func (mq *MarkQueue) Len() int {
	return mq.q.Len() + mq.inQ.Len() + mq.outQ.Len() + int(mq.stored)
}

// Empty reports whether no entries remain anywhere.
func (mq *MarkQueue) Empty() bool { return mq.Len() == 0 }

// CanReserve reports whether n more references are guaranteed to be
// acceptable. Producers (tracer, reader) reserve capacity before issuing a
// chunk so responses never have to drop references. Reservations count only
// on-chip slots (Q and outQ): the spill region is reachable only through
// outQ a burst at a time, so counting it could overflow outQ under a burst
// of responses. Every push is covered by a reservation, which makes
// "free >= reserved" an invariant and Push infallible for reserved work.
func (mq *MarkQueue) CanReserve(n int) bool {
	free := mq.q.Free() + mq.outQ.Free()
	return free-mq.reserved >= n
}

// Reserve claims capacity for n upcoming pushes.
func (mq *MarkQueue) Reserve(n int) { mq.reserved += n }

// Unreserve releases m unused reservations (references that turned out to
// be null are not pushed).
func (mq *MarkQueue) Unreserve(n int) { mq.reserved -= n }

func (mq *MarkQueue) spillUsedBytes() uint64 {
	return mq.stored / uint64(mq.burstEntries()) * 64
}

// Push enqueues a reference, preferring the main queue and falling back to
// outQ (which spills). It consumes one reservation if any are held.
//
//hwgc:hotpath
func (mq *MarkQueue) Push(ref uint64) bool {
	ok := mq.q.Push(ref)
	if !ok {
		ok = mq.outQ.Push(ref)
		if ok {
			mq.tick.Wake()
		}
	}
	if ok {
		if mq.reserved > 0 {
			mq.reserved--
		}
		mq.rPush.Inc()
		if d := mq.Len(); d > mq.PeakDepth {
			mq.PeakDepth = d
		}
		if mq.notifyAvail != nil {
			mq.notifyAvail()
		}
	}
	return ok
}

// Pop dequeues a reference, preferring the main queue, then inQ.
//
//hwgc:hotpath
func (mq *MarkQueue) Pop() (uint64, bool) {
	ref, ok := mq.q.Pop()
	if !ok {
		ref, ok = mq.inQ.Pop()
	}
	if ok {
		mq.tick.Wake()
		if mq.notifySpace != nil {
			mq.notifySpace()
		}
	}
	return ref, ok
}

// TracerThrottled asserts when outQ passes 3/4 occupancy — the signal that
// stops the tracer from issuing further requests (Section V-C).
func (mq *MarkQueue) TracerThrottled() bool {
	return mq.outQ.Len()*4 >= mq.outQ.Cap()*3
}

func (mq *MarkQueue) encode(ref uint64) uint64 {
	if mq.cfg.Compress {
		return (ref - mq.cfg.CompressBase) >> 3
	}
	return ref
}

func (mq *MarkQueue) decode(v uint64) uint64 {
	if mq.cfg.Compress {
		return (v << 3) + mq.cfg.CompressBase
	}
	return v
}

// step runs the spill state machine: at most one 64-byte memory operation
// per cycle, writes before reads.
func (mq *MarkQueue) step() bool {
	burst := mq.burstEntries()

	// 1. Spill a full burst from outQ.
	if mq.outQ.Len() >= burst && mq.spillUsedBytes()+64 <= mq.cfg.Size && mq.issuer.Free() > 0 {
		addr := mq.cfg.Base + mq.tail
		for i := 0; i < burst; i++ {
			v, _ := mq.outQ.Pop()
			mq.storeEntry(addr, i, v)
		}
		mq.issuer.TryIssue(addr, 64, dram.Write, nil)
		mq.tail = (mq.tail + 64) % mq.cfg.Size
		mq.stored += uint64(burst)
		mq.SpillWriteReqs++
		mq.SpilledEntries += uint64(burst)
		if mq.tel != nil {
			mq.tel.Instant1("tracer.markq", "spill-write", mq.eng.Now(),
				"entries", uint64(burst))
		}
		if mq.notifySpace != nil {
			mq.notifySpace()
		}
		return true
	}

	// 2. Refill inQ from the region.
	if mq.stored > 0 && !mq.refillPending && mq.inQ.Free() >= burst && mq.issuer.Free() > 0 {
		mq.refillAddr = mq.cfg.Base + mq.head
		mq.refillPending = true
		if mq.tel != nil {
			mq.refillStart = mq.eng.Now()
		}
		mq.issuer.TryIssue(mq.refillAddr, 64, dram.Read, mq.refillFn)
		return true
	}

	// 3. Region empty: move outQ straight to inQ, no memory traffic.
	if mq.stored == 0 && !mq.refillPending && !mq.outQ.Empty() && !mq.inQ.Full() {
		moved := false
		for i := 0; i < burst && !mq.outQ.Empty() && !mq.inQ.Full(); i++ {
			v, _ := mq.outQ.Pop()
			mq.inQ.Push(v)
			mq.DirectCopies++
			moved = true
		}
		if moved {
			if mq.notifyAvail != nil {
				mq.notifyAvail()
			}
			if mq.notifySpace != nil {
				mq.notifySpace()
			}
		}
		return true
	}
	return false
}

// refilled moves the spill burst read from refillAddr into inQ.
//
//hwgc:hotpath
func (mq *MarkQueue) refilled(uint64) {
	burst := mq.burstEntries()
	for i := 0; i < burst; i++ {
		mq.inQ.Push(mq.loadEntry(mq.refillAddr, i))
	}
	mq.head = (mq.head + 64) % mq.cfg.Size
	mq.stored -= uint64(burst)
	mq.refillPending = false
	mq.SpillReadReqs++
	if mq.tel != nil {
		mq.tel.Complete1("tracer.markq", "spill-read", mq.refillStart,
			mq.eng.Now(), "entries", uint64(burst))
	}
	if mq.notifyAvail != nil {
		mq.notifyAvail()
	}
	mq.tick.Wake()
}

func (mq *MarkQueue) storeEntry(burstAddr uint64, i int, ref uint64) {
	v := mq.encode(ref)
	if mq.cfg.Compress {
		mq.mem.Store32(burstAddr+uint64(i*4), uint32(v))
	} else {
		mq.mem.Store64(burstAddr+uint64(i*8), v)
	}
}

func (mq *MarkQueue) loadEntry(burstAddr uint64, i int) uint64 {
	if mq.cfg.Compress {
		return mq.decode(uint64(mq.mem.Load32(burstAddr + uint64(i*4))))
	}
	return mq.decode(mq.mem.Load64(burstAddr + uint64(i*8)))
}

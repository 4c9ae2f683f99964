// Package tilelink models the on-chip interconnect the GC unit attaches to:
// multiple client ports feeding a shared memory system through a round-robin
// arbiter that grants one request per cycle.
//
// It is deliberately a timing model, not a coherence protocol: the paper's
// unit talks to memory through Get/Put/AMO messages with aligned transfer
// sizes between 8 and 64 bytes, and its throughput ceiling (one grant per
// cycle, sub-cache-line transfers) is what produces the paper's
// 8.66-cycles-per-request and 88%-port-busy numbers (Figure 17b).
package tilelink

import (
	"fmt"

	"hwgc/internal/dram"
	"hwgc/internal/sim"
	"hwgc/internal/telemetry"
)

// MaxTransfer is the largest transfer size in bytes (one cache line).
const MaxTransfer = 64

// MinTransfer is the smallest transfer size in bytes (one word).
const MinTransfer = 8

// BeatBytes is the width of the unit's TileLink channel: each message
// occupies the port for one header beat plus one beat per BeatBytes of
// data. This single-port serialization is what limits the paper's unit to
// one request every ~8.66 cycles at 88% port occupancy (Figure 17b) and a
// peak of ~3.3 GB/s of useful data on an 8 GB/s memory system.
const BeatBytes = 8

// Bus is the shared interconnect: ports -> arbiter -> memory. All of the
// GC unit's clients multiplex onto this one SoC attachment point.
type Bus struct {
	eng       *sim.Engine
	mem       dram.Memory
	ports     []*Port
	rr        int
	tick      *sim.Ticker
	wake      func() // b.tick.Wake, bound once so a busy cycle allocates nothing
	busyUntil uint64

	// Grants counts arbiter grants (requests accepted into memory).
	Grants uint64
	// GrantBytes counts bytes moved by granted requests.
	GrantBytes uint64
	// BusyBeats counts port-occupied cycles (header + data beats).
	BusyBeats uint64
	// MaxShare caps the unit's share of the channel (Section VII's
	// bandwidth throttling): after each grant the channel is held idle
	// so the unit consumes at most this fraction of cycles. 0 or 1 means
	// unthrottled.
	MaxShare float64
	// Bandwidth, when non-nil, accumulates granted bytes per interval
	// (used to plot Figure 16).
	Bandwidth *sim.Series

	firstGrant uint64
	lastGrant  uint64
	haveGrant  bool

	tel     *telemetry.Tracer // nil = tracing disabled (fast path)
	rGrants *telemetry.Rate
	rBytes  *telemetry.Rate
}

// New returns a bus feeding mem.
func New(eng *sim.Engine, mem dram.Memory) *Bus {
	b := &Bus{eng: eng, mem: mem}
	b.tick = sim.NewTicker(eng, b.step)
	b.wake = b.tick.Wake
	mem.SetOnSpace(b.wake)
	return b
}

// NewPort registers a client with the given per-port queue depth.
func (b *Bus) NewPort(name string, depth int) *Port {
	p := &Port{bus: b, name: name, q: sim.NewQueue[dram.Request](depth),
		grantLabel: "grant:" + name}
	b.ports = append(b.ports, p)
	return p
}

// AttachTelemetry registers interconnect metrics under tilelink.* (totals,
// a sampled grants-per-cycle rate, per-port request counters and queue
// occupancy gauges) and enables per-grant trace spans, one per arbiter
// grant, labelled with the granted port.
func (b *Bus) AttachTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	b.tel = h.Tracer()
	reg := h.Registry()
	b.rGrants = reg.Rate("tilelink.grants.rate")
	b.rBytes = reg.Rate("tilelink.bytes.rate")
	reg.CounterFunc("tilelink.grants", func() uint64 { return b.Grants })
	reg.CounterFunc("tilelink.grantbytes", func() uint64 { return b.GrantBytes })
	reg.CounterFunc("tilelink.busybeats", func() uint64 { return b.BusyBeats })
	for _, p := range b.ports {
		p := p
		prefix := "tilelink.port." + p.name + "."
		reg.CounterFunc(prefix+"requests", func() uint64 { return p.Requests })
		reg.CounterFunc(prefix+"bytes", func() uint64 { return p.Bytes })
		reg.Gauge(prefix+"occupancy", func() float64 { return float64(p.q.Len()) })
	}
}

// step grants one request when the port channel is free; the message then
// occupies the channel for its header and data beats.
//
//hwgc:hotpath
func (b *Bus) step() bool {
	now := b.eng.Now()
	if now < b.busyUntil {
		b.eng.At(b.busyUntil, b.wake)
		return false
	}
	n := len(b.ports)
	granted := false
	for i := 0; i < n; i++ {
		p := b.ports[(b.rr+i)%n]
		req, ok := p.q.Peek()
		if !ok {
			continue
		}
		if !b.mem.Enqueue(req) {
			// Memory full: stall; we are woken by OnSpace.
			return false
		}
		p.q.Pop()
		p.notifySpace()
		b.rr = (b.rr + i + 1) % n
		b.Grants++
		b.GrantBytes += req.Size
		occ := 1 + (req.Size+BeatBytes-1)/BeatBytes
		hold := occ
		if b.MaxShare > 0 && b.MaxShare < 1 {
			hold = uint64(float64(occ) / b.MaxShare)
		}
		b.busyUntil = now + hold
		b.BusyBeats += occ
		b.rGrants.Inc()
		b.rBytes.Add(req.Size)
		if b.tel != nil {
			b.tel.Complete1("tilelink", p.grantLabel, now, now+occ, "bytes", req.Size)
		}
		if !b.haveGrant {
			b.firstGrant = now
			b.haveGrant = true
		}
		b.lastGrant = now
		if b.Bandwidth != nil {
			b.Bandwidth.Add(now, float64(req.Size))
		}
		granted = true
		break
	}
	if !granted {
		return false
	}
	for _, p := range b.ports {
		if !p.q.Empty() {
			return true
		}
	}
	return false
}

// BusyWindow returns (first grant cycle, last grant cycle). The port-busy
// fraction over a phase is Grants / (last - first + 1).
func (b *Bus) BusyWindow() (first, last uint64) { return b.firstGrant, b.lastGrant }

// BusyFraction returns the fraction of cycles in the grant window during
// which the port carried beats (the paper's 88% port-busy measurement).
func (b *Bus) BusyFraction() float64 {
	if !b.haveGrant || b.lastGrant == b.firstGrant {
		return 0
	}
	f := float64(b.BusyBeats) / float64(b.lastGrant-b.firstGrant+1)
	if f > 1 {
		f = 1
	}
	return f
}

// CyclesPerRequest returns the average cycles between grants across the
// busy window (Figure 17b's 8.66).
func (b *Bus) CyclesPerRequest() float64 {
	if b.Grants == 0 {
		return 0
	}
	return float64(b.lastGrant-b.firstGrant+1) / float64(b.Grants)
}

// Ports returns the registered ports (for stats reporting).
func (b *Bus) Ports() []*Port { return b.ports }

// Port is one client attachment point. Requests queue here until the
// arbiter grants them.
type Port struct {
	bus        *Bus
	name       string
	grantLabel string // "grant:<name>", precomputed so tracing never allocates
	q          *sim.Queue[dram.Request]

	// Requests counts requests issued through this port.
	Requests uint64
	// Bytes counts bytes requested through this port.
	Bytes uint64

	onSpace func()
}

// Name returns the port's label (marker, tracer, ptw, ...).
func (p *Port) Name() string { return p.name }

// Issue submits a request. It returns false when the port queue is full; the
// client retries after its OnSpace callback fires.
func (p *Port) Issue(r dram.Request) bool {
	if err := CheckTransfer(r.Addr, r.Size); err != nil {
		panic(fmt.Sprintf("tilelink: port %s: %v", p.name, err))
	}
	if !p.q.Push(r) {
		return false
	}
	p.Requests++
	p.Bytes += r.Size
	p.bus.tick.Wake()
	return true
}

// Free returns the number of free request slots in the port queue.
func (p *Port) Free() int { return p.q.Free() }

// SetOnSpace registers a callback invoked when a queued request is granted,
// freeing a slot.
func (p *Port) SetOnSpace(fn func()) { p.onSpace = fn }

func (p *Port) notifySpace() {
	if p.onSpace != nil {
		p.onSpace()
	}
}

// CheckTransfer validates the TileLink alignment rule: size must be a power
// of two in [MinTransfer, MaxTransfer] and addr must be size-aligned.
func CheckTransfer(addr, size uint64) error {
	if size < MinTransfer || size > MaxTransfer || size&(size-1) != 0 {
		return fmt.Errorf("invalid transfer size %d", size)
	}
	if addr%size != 0 {
		return fmt.Errorf("unaligned transfer: addr 0x%x size %d", addr, size)
	}
	return nil
}

// Chunks decomposes [addr, addr+n) into the largest legal transfers, the way
// the tracer's request generator does: each chunk is the biggest power of
// two that divides the current address and does not overshoot the remaining
// bytes (the paper's 8, 32, 64, 16 example for 15 references at 0x1a18).
func Chunks(addr, n uint64) []uint64 {
	var sizes []uint64
	for n > 0 {
		size := uint64(MaxTransfer)
		for size > MinTransfer && (addr%size != 0 || size > n) {
			size >>= 1
		}
		if size > n {
			// Remainder smaller than the minimum transfer: round up
			// to one minimum-size beat.
			size = MinTransfer
		}
		sizes = append(sizes, size)
		addr += size
		if size >= n {
			break
		}
		n -= size
	}
	return sizes
}

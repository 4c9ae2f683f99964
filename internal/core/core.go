// Package core assembles the paper's system: the simulated SoC with the
// traversal unit and reclamation unit attached to the interconnect (the
// hardware collector), the in-order CPU running the software Mark & Sweep
// (the baseline), and the stop-the-world GC drivers and application loops
// the experiments are built on.
//
// The two collectors operate on identical heaps (deterministic workload
// construction from a seed), so every comparison in the evaluation runs
// both sides over the same object graph.
package core

import (
	"fmt"

	"hwgc/internal/cpu"
	"hwgc/internal/dram"
	"hwgc/internal/rts"
	"hwgc/internal/sim"
	"hwgc/internal/snapshot"
	"hwgc/internal/sweep"
	"hwgc/internal/swgc"
	"hwgc/internal/telemetry"
	"hwgc/internal/tilelink"
	"hwgc/internal/trace"
	"hwgc/internal/workload"
)

// MemoryKind selects the main-memory model.
type MemoryKind uint8

const (
	// MemDDR3 is the Table I DDR3-2000 model with an FR-FCFS scheduler.
	MemDDR3 MemoryKind = iota
	// MemPipe is Figure 17's ideal memory: 1-cycle latency, 8 GB/s.
	MemPipe
)

// Config parameterizes a full system build.
type Config struct {
	System rts.Config
	Unit   trace.Config
	Sweep  sweep.Config
	CPU    cpu.Config

	Memory       MemoryKind
	MaxReads     int // DDR3 in-flight requests (Table I: 16)
	MemPolicy    dram.Policy
	PipeLatency  uint64 // MemPipe only
	PipeBPC      uint64 // MemPipe bytes/cycle
	DriverCycles uint64 // fixed launch overhead per unit start (MMIO)

	// Beat, when non-nil, receives a live cycles-simulated heartbeat from
	// every system built with this config: the hardware engine bumps it
	// from the cycle probe, the software side per collection. It never
	// affects simulated timing or results, so it is excluded from cache
	// keys and serialized forms.
	Beat *telemetry.Beat `json:"-" cachekey:"-"`

	// Tel, when non-nil, instruments every runner built with this config
	// (NewAppRunner): each forks a private child hub via Tel.ForRun, so
	// concurrent runners never share mutable telemetry state. Like Beat it
	// never affects results, so it is excluded from cache keys and
	// serialized forms.
	Tel *telemetry.Hub `json:"-" cachekey:"-"`
}

// DefaultConfig returns the paper's baseline configuration (Table I plus
// the baseline unit parameters from Section VI-A).
func DefaultConfig() Config {
	return Config{
		System:       rts.DefaultConfig(),
		Unit:         trace.DefaultConfig(),
		Sweep:        sweep.DefaultConfig(),
		CPU:          cpu.DefaultConfig(),
		Memory:       MemDDR3,
		MaxReads:     16,
		MemPolicy:    dram.FRFCFS,
		PipeLatency:  1,
		PipeBPC:      8,
		DriverCycles: 200,
	}
}

// GCResult reports one collection (either collector).
type GCResult struct {
	MarkCycles  uint64
	SweepCycles uint64
	Marked      uint64
	Freed       uint64
}

// TotalCycles returns mark + sweep.
func (r GCResult) TotalCycles() uint64 { return r.MarkCycles + r.SweepCycles }

// MarkMS returns the mark time in milliseconds at the 1 GHz clock.
func (r GCResult) MarkMS() float64 { return float64(r.MarkCycles) / 1e6 }

// SweepMS returns the sweep time in milliseconds.
func (r GCResult) SweepMS() float64 { return float64(r.SweepCycles) / 1e6 }

// HW is the hardware-collector system: the GC units on the interconnect.
type HW struct {
	Cfg   Config
	Eng   *sim.Engine
	Sys   *rts.System
	Bus   *tilelink.Bus
	DDR   *dram.DDR3 // nil under MemPipe
	Pipe  *dram.Pipe // nil under MemDDR3
	Trace *trace.Unit
	Sweep *sweep.Unit
	Tel   *telemetry.Hub // nil = telemetry disabled
}

// AttachTelemetry wires a telemetry hub through every timed component
// (interconnect, memory, traversal unit, reclamation unit, heap) and hooks
// the hub's Sample onto the engine's cycle probe. The probe fires between
// events and never schedules anything, so attaching telemetry does not
// perturb measured cycle counts.
func (hw *HW) AttachTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	hw.Tel = h
	hw.Bus.AttachTelemetry(h)
	if hw.DDR != nil {
		hw.DDR.AttachTelemetry(h)
	}
	if hw.Pipe != nil {
		hw.Pipe.AttachTelemetry(h)
	}
	hw.Trace.AttachTelemetry(h)
	hw.Sweep.AttachTelemetry(h)
	hw.Sys.Heap.AttachTelemetry(h)
	hw.hookProbe(h)
}

// hookProbe installs the engine's single cycle probe serving both
// consumers that need one: the hub (time series) and the config's progress
// heartbeat. The probe fires between events and never schedules anything,
// so neither consumer perturbs measured cycle counts.
func (hw *HW) hookProbe(h *telemetry.Hub) {
	beat := hw.Cfg.Beat
	if h == nil && beat == nil {
		return
	}
	every := uint64(1024)
	if h != nil {
		every = h.SampleEvery()
	}
	last := hw.Eng.Now()
	hw.Eng.SetProbe(every, func(cycle uint64) {
		h.Sample(cycle)
		beat.Add(cycle - last)
		last = cycle
	})
}

// NewHW builds the hardware system around an existing runtime system.
func NewHW(cfg Config, sys *rts.System) *HW {
	eng := sim.NewEngine()
	hw := &HW{Cfg: cfg, Eng: eng, Sys: sys}
	var memory dram.Memory
	switch cfg.Memory {
	case MemPipe:
		hw.Pipe = dram.NewPipe(eng, cfg.PipeLatency, cfg.PipeBPC)
		memory = hw.Pipe
	default:
		dcfg := dram.DDR3_2000(cfg.MaxReads)
		dcfg.Policy = cfg.MemPolicy
		hw.DDR = dram.NewDDR3(eng, dcfg)
		memory = hw.DDR
	}
	hw.Bus = tilelink.New(eng, memory)
	hw.Trace = trace.NewUnit(eng, hw.Bus, sys, cfg.Unit)
	hw.Sweep = sweep.NewUnit(eng, hw.Bus, sys, cfg.Sweep)
	// A heartbeat works without telemetry; AttachTelemetry re-hooks the
	// probe to serve the sampler as well.
	hw.hookProbe(nil)
	return hw
}

// MemStats returns the active memory model's counters.
func (hw *HW) MemStats() dram.Stats {
	if hw.DDR != nil {
		return hw.DDR.Stats()
	}
	return hw.Pipe.Stats()
}

// RunMark executes one hardware mark phase to completion and returns its
// cycle count. The caller must have written the roots (App.WriteRoots).
func (hw *HW) RunMark() uint64 {
	hw.Sys.Heap.FlipSense()
	start := hw.Eng.Now()
	hw.Eng.After(hw.Cfg.DriverCycles, func() {
		hw.Trace.StartMark(hw.Sys.DriverConfig())
	})
	hw.Eng.Run()
	if !hw.Trace.Drained() {
		panic("core: traversal unit stalled (engine idle, queues non-empty): " +
			hw.Trace.DebugState())
	}
	hw.Tel.Tracer().Complete("core", "mark-phase", start, hw.Eng.Now())
	return hw.Eng.Now() - start
}

// RunSweep executes one hardware sweep phase and returns its cycle count.
func (hw *HW) RunSweep() uint64 {
	start := hw.Eng.Now()
	hw.Eng.After(hw.Cfg.DriverCycles, func() {
		hw.Sweep.StartSweep(hw.Sys.DriverConfig())
	})
	hw.Eng.Run()
	if !hw.Sweep.Drained() {
		panic("core: reclamation unit stalled")
	}
	hw.Sys.Heap.MS.SyncFromMemory()
	hw.Tel.Tracer().Complete("core", "sweep-phase", start, hw.Eng.Now())
	return hw.Eng.Now() - start
}

// Collect runs a full stop-the-world hardware collection.
func (hw *HW) Collect() GCResult {
	var res GCResult
	markedBefore := hw.Trace.Marker.NewlyMarked
	freedBefore := hw.Sweep.CellsFreed
	res.MarkCycles = hw.RunMark()
	res.SweepCycles = hw.RunSweep()
	res.Marked = hw.Trace.Marker.NewlyMarked - markedBefore
	res.Freed = hw.Sweep.CellsFreed - freedBefore
	hw.Trace.FlushTLBs()
	return res
}

// SW is the software-collector system: the in-order core running the GC.
type SW struct {
	Cfg  Config
	Sys  *rts.System
	CPU  *cpu.CPU
	GC   *swgc.Collector
	Sync dram.SyncMemory
}

// NewSW builds the CPU baseline around an existing runtime system.
func NewSW(cfg Config, sys *rts.System) *SW {
	var m dram.SyncMemory
	switch cfg.Memory {
	case MemPipe:
		m = dram.NewSyncPipe(cfg.PipeLatency, cfg.PipeBPC)
	default:
		dcfg := dram.DDR3_2000(cfg.MaxReads)
		dcfg.Policy = cfg.MemPolicy
		m = dram.NewSync(dcfg)
	}
	c := cpu.New(cfg.CPU, sys.PT, m)
	return &SW{Cfg: cfg, Sys: sys, CPU: c, GC: swgc.New(sys, c, 1<<14), Sync: m}
}

// AttachTelemetry registers the CPU baseline's counters under cpu.* and the
// heap gauges, and hooks the hub's Sample onto the core's clock probe: the
// software collector has no event engine, so its probe rides the CPU's
// local cycle count instead, giving SW runs the same sampled time series as
// HW runs. The probe observes the clock without touching the core, so
// attaching telemetry does not change simulated timing.
func (sw *SW) AttachTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	reg := h.Registry()
	reg.CounterFunc("cpu.instructions", func() uint64 { return sw.CPU.Instructions })
	reg.CounterFunc("cpu.memops", func() uint64 { return sw.CPU.MemOps })
	reg.CounterFunc("cpu.mispredicts", func() uint64 { return sw.CPU.Mispredicts })
	reg.CounterFunc("cpu.tlb.hits", func() uint64 { return sw.CPU.TLB.TLB().Hits })
	reg.CounterFunc("cpu.tlb.misses", func() uint64 { return sw.CPU.TLB.TLB().Misses })
	if s, ok := sw.Sync.(*dram.Sync); ok {
		s.AttachTelemetry(h)
	}
	sw.Sys.Heap.AttachTelemetry(h)
	// The heartbeat stays per-collection (see Step/CollectNow): the probe
	// serves sampling only, to avoid double-counting cycles.
	sw.CPU.SetProbe(h.SampleEvery(), h.Sample)
}

// Collect runs a full software collection.
func (sw *SW) Collect() GCResult {
	r := sw.GC.Collect()
	return GCResult{MarkCycles: r.MarkCycles, SweepCycles: r.SweepCycles,
		Marked: r.Marked, Freed: r.FreedCells}
}

// MarkOnly runs just the software mark phase.
func (sw *SW) MarkOnly() GCResult {
	r := sw.GC.MarkOnly()
	return GCResult{MarkCycles: r.MarkCycles, Marked: r.Marked}
}

// CollectorKind selects which collector an application run uses.
type CollectorKind uint8

const (
	// SWCollector is the CPU baseline.
	SWCollector CollectorKind = iota
	// HWCollector is the GC unit.
	HWCollector
)

func (k CollectorKind) String() string {
	if k == HWCollector {
		return "GC Unit"
	}
	return "Rocket CPU"
}

// AppResult summarizes an application run with periodic collections.
type AppResult struct {
	Bench         string
	Collector     CollectorKind
	GCs           []GCResult
	MutatorCycles uint64
	GCCycles      uint64
}

// GCFraction returns the share of CPU time spent in GC pauses (Figure 1a).
func (a AppResult) GCFraction() float64 {
	total := a.MutatorCycles + a.GCCycles
	if total == 0 {
		return 0
	}
	return float64(a.GCCycles) / float64(total)
}

// MeanGC averages the collections.
func (a AppResult) MeanGC() GCResult {
	var sum GCResult
	if len(a.GCs) == 0 {
		return sum
	}
	for _, g := range a.GCs {
		sum.MarkCycles += g.MarkCycles
		sum.SweepCycles += g.SweepCycles
		sum.Marked += g.Marked
		sum.Freed += g.Freed
	}
	n := uint64(len(a.GCs))
	return GCResult{
		MarkCycles:  sum.MarkCycles / n,
		SweepCycles: sum.SweepCycles / n,
		Marked:      sum.Marked / n,
		Freed:       sum.Freed / n,
	}
}

// AppRunner drives a benchmark against one collector, exposing the system
// internals (bus, units, CPU) between collections so experiments can attach
// instrumentation mid-run (e.g. the Figure 16 bandwidth series on the last
// pause).
type AppRunner struct {
	Cfg  Config
	Spec workload.Spec
	Kind CollectorKind
	Sys  *rts.System
	App  *workload.App
	HW   *HW // nil for SWCollector
	SW   *SW // nil for HWCollector
	Res  AppResult

	// Validate cross-checks marks and sweeps against the functional
	// reachability ground truth after every collection.
	Validate bool
}

// NewAppRunner builds the system, populates the benchmark's heap, and
// attaches the chosen collector. When the snapshot store is enabled (the
// default), the initial image — heap graph, free lists, page tables, root
// set — is built once per (system config, spec, seed) and each runner gets
// a copy-on-write clone; results are byte-identical to a cold build.
func NewAppRunner(cfg Config, spec workload.Spec, kind CollectorKind, seed uint64) (*AppRunner, error) {
	var sys *rts.System
	var app *workload.App
	if snapshot.Enabled() {
		var err error
		sys, app, err = snapshot.Default().Get(cfg.System, spec, seed).Instantiate()
		if err != nil {
			// Reproduce the cold-build error exactly (reports must not
			// depend on the instantiation path).
			return nil, fmt.Errorf("core: %s: live set does not fit the heap", spec.Name)
		}
	} else {
		sys = rts.NewSystem(cfg.System)
		app = workload.NewApp(sys, spec, seed)
		if !app.Populate() {
			// The initial graph must fit: collecting during population
			// is not modelled.
			return nil, fmt.Errorf("core: %s: live set does not fit the heap", spec.Name)
		}
	}
	r := &AppRunner{Cfg: cfg, Spec: spec, Kind: kind, Sys: sys, App: app,
		Res: AppResult{Bench: spec.Name, Collector: kind}}
	if kind == HWCollector {
		r.HW = NewHW(cfg, sys)
	} else {
		r.SW = NewSW(cfg, sys)
	}
	// The config's hub (hwgc-bench -timeseries/-trace-out) forks a private
	// per-run child here, so concurrent runners never share mutable
	// telemetry state.
	if cfg.Tel != nil {
		short := "sw"
		if kind == HWCollector {
			short = "hw"
		}
		r.AttachTelemetry(cfg.Tel.ForRun(spec.Name + "/" + short))
	}
	return r, nil
}

// AttachTelemetry wires a hub through the runner's collector system.
func (r *AppRunner) AttachTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	if r.HW != nil {
		r.HW.AttachTelemetry(h)
	}
	if r.SW != nil {
		r.SW.AttachTelemetry(h)
	}
}

// Step churns the mutator until the heap fills, then performs one
// collection.
func (r *AppRunner) Step() error {
	allocBefore := r.App.AllocatedBytes
	for r.App.Churn(1 << 20) {
		// keep churning until the heap fills
	}
	if len(r.Res.GCs) > 0 && r.App.AllocatedBytes == allocBefore {
		return fmt.Errorf("core: %s: no allocation progress after GC (heap too small for live set)", r.Spec.Name)
	}
	r.Res.MutatorCycles += uint64(float64(r.App.AllocatedBytes-allocBefore) * r.Spec.MutatorCyclesPerByte)

	r.App.WriteRoots()
	reach := r.Sys.Reachable()
	var g GCResult
	if r.Kind == HWCollector {
		g = r.HW.Collect()
	} else {
		g = r.SW.Collect()
		// The software side is synchronous (no engine probe), so the
		// heartbeat advances per collection instead.
		r.Cfg.Beat.Add(g.TotalCycles())
	}
	if r.Validate {
		if err := r.Sys.CheckSweep(); err != nil {
			return fmt.Errorf("core: %s GC %d: %w", r.Spec.Name, len(r.Res.GCs), err)
		}
	}
	r.App.PruneDeadPool(reach)
	r.Res.GCs = append(r.Res.GCs, g)
	r.Res.GCCycles += g.TotalCycles()
	return nil
}

// CollectNow performs one collection immediately (no mutator churn): root
// scan, collect, prune. Used by workloads that drive allocation themselves
// (the query-latency experiment).
func (r *AppRunner) CollectNow() GCResult {
	r.App.WriteRoots()
	reach := r.Sys.Reachable()
	var g GCResult
	if r.Kind == HWCollector {
		g = r.HW.Collect()
	} else {
		g = r.SW.Collect()
		r.Cfg.Beat.Add(g.TotalCycles())
	}
	r.App.PruneDeadPool(reach)
	r.Res.GCs = append(r.Res.GCs, g)
	r.Res.GCCycles += g.TotalCycles()
	return g
}

// RunGCs performs n collections.
func (r *AppRunner) RunGCs(n int) error {
	for i := 0; i < n; i++ {
		if err := r.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunApp executes a benchmark: populate the heap, churn the mutator until
// the heap fills, collect, and repeat for gcs collections. Mutator time is
// charged per allocated byte from the spec's cost model; GC pauses come
// from the chosen collector's timing model.
//
// validate, when set, cross-checks marks and sweeps against the functional
// reachability ground truth after every collection (used by tests; slows
// large runs).
func RunApp(cfg Config, spec workload.Spec, kind CollectorKind, gcs int, seed uint64, validate bool) (AppResult, error) {
	r, err := NewAppRunner(cfg, spec, kind, seed)
	if err != nil {
		return AppResult{}, err
	}
	r.Validate = validate
	err = r.RunGCs(gcs)
	return r.Res, err
}

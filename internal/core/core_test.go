package core

import (
	"testing"

	"hwgc/internal/heap"
	"hwgc/internal/rts"
	"hwgc/internal/workload"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.System.PhysBytes = 512 << 20
	cfg.System.Heap.MarkSweepBytes = 8 << 20
	cfg.System.Heap.BumpBytes = 2 << 20
	return cfg
}

func smallSpec(name string) workload.Spec {
	s, ok := workload.ByName(name)
	if !ok {
		panic("unknown spec " + name)
	}
	s.LiveObjects = 8000
	s.Roots = 200
	return s
}

func TestHWCollectEquivalentToSW(t *testing.T) {
	// Both collectors over identical graphs (same seed) must mark the
	// same number of objects and free the same number of cells.
	cfg := testConfig()
	build := func() (*rts.System, *workload.App) {
		sys := rts.NewSystem(cfg.System)
		app := workload.NewApp(sys, smallSpec("avrora"), 7)
		if !app.Populate() {
			t.Fatal("populate failed")
		}
		app.WriteRoots()
		return sys, app
	}

	sysHW, _ := build()
	hw := NewHW(cfg, sysHW)
	gHW := hw.Collect()
	if err := sysHW.CheckSweep(); err != nil {
		t.Fatalf("HW sweep invariant: %v", err)
	}

	sysSW, _ := build()
	sw := NewSW(cfg, sysSW)
	gSW := sw.Collect()
	if err := sysSW.CheckSweep(); err != nil {
		t.Fatalf("SW sweep invariant: %v", err)
	}

	if gHW.Marked != gSW.Marked {
		t.Fatalf("marked: HW %d, SW %d", gHW.Marked, gSW.Marked)
	}
	if gHW.Freed != gSW.Freed {
		t.Fatalf("freed: HW %d, SW %d", gHW.Freed, gSW.Freed)
	}
}

func TestHWFasterThanSWOnMark(t *testing.T) {
	cfg := testConfig()
	spec := smallSpec("luindex")
	spec.LiveObjects = 20000

	sysHW := rts.NewSystem(cfg.System)
	appHW := workload.NewApp(sysHW, spec, 9)
	appHW.Populate()
	appHW.WriteRoots()
	hw := NewHW(cfg, sysHW)
	gHW := hw.Collect()

	sysSW := rts.NewSystem(cfg.System)
	appSW := workload.NewApp(sysSW, spec, 9)
	appSW.Populate()
	appSW.WriteRoots()
	sw := NewSW(cfg, sysSW)
	gSW := sw.Collect()

	if gHW.MarkCycles >= gSW.MarkCycles {
		t.Fatalf("HW mark (%d) not faster than SW (%d)", gHW.MarkCycles, gSW.MarkCycles)
	}
	if gHW.SweepCycles >= gSW.SweepCycles {
		t.Fatalf("HW sweep (%d) not faster than SW (%d)", gHW.SweepCycles, gSW.SweepCycles)
	}
}

func TestRunAppSW(t *testing.T) {
	cfg := testConfig()
	res, err := RunApp(cfg, smallSpec("avrora"), SWCollector, 3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GCs) != 3 {
		t.Fatalf("GCs = %d", len(res.GCs))
	}
	f := res.GCFraction()
	if f <= 0 || f >= 1 {
		t.Fatalf("GC fraction = %v", f)
	}
	if res.MeanGC().MarkCycles == 0 {
		t.Fatal("zero mark time")
	}
}

func TestRunAppHW(t *testing.T) {
	cfg := testConfig()
	res, err := RunApp(cfg, smallSpec("lusearch"), HWCollector, 3, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GCs) != 3 {
		t.Fatalf("GCs = %d", len(res.GCs))
	}
	// Later GCs must still free memory (the system reaches a steady
	// state rather than leaking).
	if res.GCs[2].Freed == 0 {
		t.Fatal("third GC freed nothing")
	}
}

func TestRunAppDeterministic(t *testing.T) {
	cfg := testConfig()
	run := func() uint64 {
		res, err := RunApp(cfg, smallSpec("avrora"), HWCollector, 2, 5, false)
		if err != nil {
			t.Fatal(err)
		}
		return res.GCCycles
	}
	if run() != run() {
		t.Fatal("same-seed app runs diverged")
	}
}

// TestPipeWidensUnitAdvantage checks the Figure 17 claim: with the ideal
// memory the unit's mark speedup over the CPU grows (the unit exploits the
// extra memory performance; the blocking in-order core cannot).
func TestPipeWidensUnitAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("churned-heap simulation")
	}
	ratio := func(kind MemoryKind) float64 {
		// The effect needs the experiment-scale setup: a churned
		// 20 MB heap with the unit's translation reach scaled to it —
		// under DDR3 the unit is then TLB/PTW bound, which is exactly
		// what the ideal memory relieves.
		cfg := testConfig()
		cfg.Memory = kind
		cfg.System.Heap.MarkSweepBytes = 20 << 20
		cfg.Unit.PTWCacheBytes = 2 << 10
		cfg.Unit.L2TLBEntries = 64
		spec, _ := workload.ByName("avrora")
		swRes, err := RunApp(cfg, spec, SWCollector, 1, 11, false)
		if err != nil {
			t.Fatal(err)
		}
		hwRes, err := RunApp(cfg, spec, HWCollector, 1, 11, false)
		if err != nil {
			t.Fatal(err)
		}
		return float64(swRes.MeanGC().MarkCycles) / float64(hwRes.MeanGC().MarkCycles)
	}
	ddr := ratio(MemDDR3)
	pipe := ratio(MemPipe)
	if pipe <= ddr {
		t.Fatalf("unit advantage under pipe (%.2fx) not larger than under DDR3 (%.2fx)", pipe, ddr)
	}
}

func TestMarkFractionDominates(t *testing.T) {
	// Section VI-A: ~75% of software GC time is the mark phase. The live
	// set must be a realistic share of the heap for this to hold.
	cfg := testConfig()
	spec := smallSpec("pmd")
	spec.LiveObjects = 45000
	res, err := RunApp(cfg, spec, SWCollector, 2, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	g := res.MeanGC()
	frac := float64(g.MarkCycles) / float64(g.TotalCycles())
	if frac < 0.5 {
		t.Fatalf("mark fraction = %.2f, want the majority of GC time", frac)
	}
}

func TestCollectorKindString(t *testing.T) {
	if SWCollector.String() != "Rocket CPU" || HWCollector.String() != "GC Unit" {
		t.Fatal("collector names changed (experiment tables depend on them)")
	}
}

// TestRunAppSWTIBLayout runs the software collector three times on the
// conventional TIB layout with validation on. That layout keeps the status
// word at +8, behind the TIB pointer, so a sweep that classified cells by
// their first word would free live objects and the next collection would
// chase their overwritten fields.
func TestRunAppSWTIBLayout(t *testing.T) {
	cfg := testConfig()
	cfg.System.Heap.Layout = heap.TIBLayout
	res, err := RunApp(cfg, smallSpec("avrora"), SWCollector, 3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range res.GCs {
		if g.Freed == 0 {
			t.Errorf("GC %d freed nothing", i+1)
		}
	}
}

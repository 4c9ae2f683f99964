package experiments

// The parallel experiment fleet: a worker pool that fans independent
// simulation work out to goroutines and reassembles results in canonical
// order, so parallel output is byte-identical to a serial run.
//
// Two levels use the same machinery:
//
//   - RunFleet fans whole experiments (one Runner each) out to workers —
//     the hwgc-bench matrix.
//   - mapCells fans an experiment's internal (workload, config-point)
//     cells out — the per-spec and per-config loops inside runners.
//
// Determinism: every cell builds its own core.AppRunner, which owns a
// private sim.Engine, heap, and seeded RNG; nothing is shared between
// cells, and results are collected into an index-addressed slice, so the
// assembled report does not depend on completion order. Telemetry rides
// in Options.Tel and every runner forks a private child hub from it, so an
// instrumented fleet keeps its full width too.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Result pairs a runner with its report or failure from a fleet run.
type Result struct {
	Runner Runner
	Report Report
	// Err is the runner's error; a panic inside a runner or cell is
	// recovered and reported here with its stack.
	Err error
}

// Width resolves a requested parallelism to the effective worker count:
// <= 0 means GOMAXPROCS.
func Width(parallel int) int {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return parallel
}

// RunFleet executes runners with up to parallel workers (Width rules) and
// returns one Result per runner in the given (canonical) order. o.Parallel
// is set to the resolved width so runners can fan their own cells out.
func RunFleet(runners []Runner, o Options, parallel int) []Result {
	width := Width(parallel)
	o.Parallel = width
	results := make([]Result, len(runners))
	if width <= 1 || len(runners) <= 1 {
		for i, r := range runners {
			results[i] = runShielded(r, o)
		}
		return results
	}
	if width > len(runners) {
		width = len(runners)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = runShielded(runners[i], o)
			}
		}()
	}
	for i := range runners {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// runShielded runs one experiment, converting a panic into an error so a
// single bad runner cannot take down the whole fleet (or, serially, the
// whole process).
func runShielded(r Runner, o Options) (res Result) {
	res.Runner = r
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("%s: panic: %v\n%s", r.ID, p, debug.Stack())
		}
	}()
	res.Report, res.Err = r.Run(o)
	return res
}

// mapCells evaluates fn for cells 0..n-1 with up to o.Parallel concurrent
// workers and returns the results in cell order. On failure it returns the
// error of the lowest-index failing cell — the same cell a serial sweep
// would have stopped at — so error reporting is deterministic at any
// width. Panics in a cell are recovered into that cell's error.
func mapCells[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	width := Width(o.Parallel)
	if width > n {
		width = n
	}
	if width <= 1 {
		for i := 0; i < n; i++ {
			v, err := runCell(i, fn)
			if err != nil {
				return out, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i], errs[i] = runCell(i, fn)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// runCell evaluates one cell with panic shielding.
func runCell[T any](i int, fn func(i int) (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cell %d: panic: %v\n%s", i, p, debug.Stack())
		}
	}()
	return fn(i)
}

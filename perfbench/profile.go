package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// hostShares maps a pprof "phase" label ("" when unlabeled) and a package
// to its share of all CPU samples in a profile.
type hostShares map[string]map[string]float64

// set reports every package's share as host_share.<pkg> and, for labeled
// phases, host_share.<phase>.<pkg>; the spec picks which are printed.
func (h hostShares) set(out *outcome) {
	total := make(map[string]float64)
	for phase, byPkg := range h {
		for pkg, share := range byPkg {
			total[pkg] += share
			if phase != "" {
				out.set("host_share."+phase+"."+pkg, "fraction", share)
			}
		}
	}
	for pkg, share := range total {
		out.set("host_share."+pkg, "fraction", share)
	}
}

// profileShares reads a CPU profile with `go tool pprof -traces` and
// attributes each sample's CPU time to the package of its innermost (leaf)
// function, split by the sample's "phase" label.
func profileShares(path string) (hostShares, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return parseTraces(string(text)), nil
}

// parseTraces folds pprof's -traces listing into host shares. Each sample
// is a block after a "-----------+---" rule: optional "key:  value" label
// lines, then "<time>   <leaf function>", then the callers.
func parseTraces(text string) hostShares {
	var total float64
	out := hostShares{}
	for _, block := range strings.Split(text, "-----------+")[1:] {
		phase := ""
		for _, line := range strings.Split(block, "\n") {
			f := strings.Fields(line)
			if len(f) < 2 {
				continue
			}
			if f[0] == "phase:" {
				phase = f[1]
				continue
			}
			d, err := time.ParseDuration(f[0])
			if err != nil {
				continue
			}
			leaf := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), f[0]))
			pkg := layerOf(leaf)
			if out[phase] == nil {
				out[phase] = map[string]float64{}
			}
			out[phase][pkg] += float64(d)
			total += float64(d)
			break
		}
	}
	if total == 0 {
		return out
	}
	for _, byPkg := range out {
		for pkg := range byPkg {
			byPkg[pkg] /= total
		}
	}
	return out
}

// layerOf maps a Go function name to the layer it belongs to: the
// repository package name for hwgc/internal/<pkg>, "runtime" for the Go
// runtime (maps, GC, scheduler), "perfbench" for this benchmark, and "std"
// for the rest of the standard library.
func layerOf(fn string) string {
	pkg := fn
	// Receiver types and type arguments may hold other package paths.
	if i := strings.IndexAny(pkg, "(["); i >= 0 {
		pkg = pkg[:i]
	}
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "hwgc/internal/"):
		return strings.TrimPrefix(pkg, "hwgc/internal/")
	case pkg == "hwgc":
		return "hwgc"
	case pkg == "main":
		return "perfbench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "std"
}

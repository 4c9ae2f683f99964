package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// passCount is how many passes of the nominal length fill the measurement
// time, at least one. A pass is a workload's fixed unit of work; the count
// depends only on the flags, so every run at the same settings does the
// same work.
func passCount(seconds, nominal time.Duration) int {
	return max(1, int((seconds+nominal/2)/nominal))
}

// burstHeap is how much a hit burst may allocate between the untimed
// collections it makes.
const burstHeap = 16 << 20

// hitBurst times n calls of hit with the Go collector paused: the burst
// collects, untimed, at its start and whenever hits have allocated
// burstHeap since, so no hit pays for a collection (the cells' wall time
// already pays for those) or for fresh memory from the kernel. Each hit,
// with check (if any) run untimed after it, counts as one checked
// operation.
func hitBurst(n int, out *outcome, hit, check func() error) []float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var since uint64
	lat := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		metrics.Read(allocs)
		if now := allocs[0].Value.Uint64(); k == 0 || now-since > burstHeap {
			runtime.GC()
			since = now
		}
		t := time.Now()
		err := hit()
		lat = append(lat, ms(time.Since(t)))
		if err == nil && check != nil {
			err = check()
		}
		out.check(err)
	}
	return lat
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// procStatusKiB reads one "<field>: N kB" line of /proc/<pid>/status.
func procStatusKiB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, field)
}

// peakRSSMB is a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid string) (float64, error) {
	kib, err := procStatusKiB(pid, "VmHWM")
	return kib / 1024, err
}

// cpuSeconds is a process's user+system CPU time from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	const clockTicks = 100 // USER_HZ on Linux
	return (utime + stime) / clockTicks, nil
}

// mallocs is this process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

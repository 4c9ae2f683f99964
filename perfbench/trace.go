package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one timed call into a layer. IDs start at 1; Parent 0 is a root.
// Spans of one request or collection cell share a Group.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Group  string  `json:"group"`
	Name   string  `json:"name"`
	Start  float64 `json:"startMs"` // since the tracer's origin
	End    float64 `json:"endMs"`
}

func (s span) dur() time.Duration { return time.Duration((s.End - s.Start) * 1e6) }

// tracer keeps spans in memory until the run ends. Each workload records
// from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

// newTracer returns a tracer whose span times count from t0.
func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// record appends a finished span and returns its ID.
func (t *tracer) record(parent int, group, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0))})
	return id
}

// open starts a span whose children are recorded before it ends; close
// finishes it.
func (t *tracer) open(parent int, group, name string) int {
	now := time.Now()
	return t.record(parent, group, name, now, now)
}

func (t *tracer) close(id int) { t.spans[id-1].End = ms(time.Since(t.t0)) }

// do runs fn inside a span named "<layer>.<call>" and under a pprof
// "phase" label "<call>", so CPU samples are attributed to the phase that
// caused them.
func (t *tracer) do(parent int, group, name string, fn func()) time.Duration {
	start := time.Now()
	phase := name[strings.IndexByte(name, '.')+1:]
	pprof.Do(context.Background(), pprof.Labels("phase", phase), func(context.Context) { fn() })
	end := time.Now()
	t.record(parent, group, name, start, end)
	return end.Sub(start)
}

// byName sums span durations per name.
func (t *tracer) byName() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += s.dur()
	}
	return out
}

// dur is a recorded span's duration.
func (t *tracer) dur(id int) time.Duration { return t.spans[id-1].dur() }

// untracedFrac is the share of a root span's time that no leaf span
// covers: time spent in the benchmark's own code between layer calls.
// Every span recorded is assumed to lie under root, and sibling spans do
// not overlap in this benchmark.
func (t *tracer) untracedFrac(root int) float64 {
	hasChild := make(map[int]bool)
	for _, s := range t.spans {
		hasChild[s.Parent] = true
	}
	total := t.spans[root-1].dur()
	covered := time.Duration(0)
	for _, s := range t.spans {
		if !hasChild[s.ID] && s.ID != root {
			covered += s.dur()
		}
	}
	if total <= 0 {
		return 0
	}
	return float64(total-covered) / float64(total)
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, file string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), b, 0o644)
}

// cpuProfile profiles this process until stop is called.
type cpuProfile struct {
	f *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{f: f}, nil
}

// stop ends the profile and returns its host shares, which it also writes
// as JSON next to the profile, every phase and package included.
func (c *cpuProfile) stop() (hostShares, error) {
	pprof.StopCPUProfile()
	if err := c.f.Close(); err != nil {
		return nil, err
	}
	shares, err := profileShares(c.f.Name())
	if err != nil {
		return nil, err
	}
	js, err := json.MarshalIndent(shares, "", " ")
	if err != nil {
		return nil, err
	}
	return shares, os.WriteFile(strings.TrimSuffix(c.f.Name(), ".cpu.pprof")+".shares.json", js, 0o644)
}

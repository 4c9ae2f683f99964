package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serveScale sizes the serve workload's traffic.
type serveScale struct {
	perClient int // requests per client per pass
	coldEvery int // every coldEvery-th request of a client is cold
	shrink    int // experiment options Shrink for every cell
}

func newServeScale(tiny bool) serveScale {
	if tiny {
		return serveScale{perClient: 20, coldEvery: 10, shrink: 32}
	}
	return serveScale{perClient: 500, coldEvery: 100, shrink: 8}
}

const (
	// servePass is the nominal length of one serve pass (a fresh daemon,
	// priming, 10 cold cells and 990 hits) on a 2-core Xeon host; a run
	// makes as many passes as fill --seconds.
	servePass    = 4 * time.Second
	serveClients = 2
	coldExp      = "fig16" // a GC-unit cell: DRAM, TileLink and tracer telemetry attached
	readyTimeout = 30 * time.Second
	stopTimeout  = 60 * time.Second // above hwgc-serve's 30 s drain timeout
)

// warmExps are the cells most requests repeat; all but the last are cheap.
var warmExps = []string{"table1", "fig22", "abl-barriers", coldExp}

// cell is one hwgc-serve job request.
type cell struct {
	exp  string
	seed uint64
	cold bool // expected to miss the result cache
}

func (c cell) body(shrink int) []byte {
	b, _ := json.Marshal(map[string]any{
		"experiment": c.exp,
		"options":    map[string]any{"GCs": 1, "Quick": true, "Shrink": shrink, "Seed": c.seed},
		"wait":       true,
	})
	return b
}

// jobView is the part of hwgc-serve's job view the benchmark reads.
type jobView struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	CacheHit  bool            `json:"cacheHit"`
	Report    json.RawMessage `json:"report"`
	Error     string          `json:"error"`
	Submitted time.Time       `json:"submittedAt"`
	Started   *time.Time      `json:"startedAt"`
	Finished  *time.Time      `json:"finishedAt"`
}

// reply is one completed request as the client saw it.
type reply struct {
	cell
	sent    time.Time
	latency time.Duration
	bytes   int
	view    jobView
}

// daemon is a running hwgc-serve process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed when the process has exited and been reaped
	err  error         // exit status, valid after done
	log  *os.File
}

// startDaemon launches hwgc-serve on a free loopback port and waits for
// /readyz. It fails if the daemon exits or does not become ready in time.
func startDaemon(ctx context.Context, bin, logPath string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	// -pprof only adds /debug/pprof routes; the benchmark reads the
	// daemon's allocation count from its heap profile header.
	cmd := exec.Command(bin, "-addr", addr, "-pprof")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark itself be killed, take the daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), log: logf}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := time.After(readyTimeout)
	for {
		select {
		case <-d.done:
			logf.Close()
			return nil, fmt.Errorf("hwgc-serve exited before it was ready (%v); see %s", d.err, logPath)
		case <-deadline:
			_ = d.stop()
			return nil, fmt.Errorf("hwgc-serve not ready after %v; see %s", readyTimeout, logPath)
		case <-ctx.Done():
			_ = d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
	}
}

// stop sends SIGTERM (a graceful drain), waits for the process to exit,
// killing it if the drain overruns, and reports an unclean exit.
func (d *daemon) stop() error {
	defer d.log.Close()
	select {
	case <-d.done:
		return fmt.Errorf("hwgc-serve exited early: %v", d.err)
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
		return d.err
	case <-time.After(stopTimeout):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("hwgc-serve did not drain within %v", stopTimeout)
	}
}

// getJSON decodes a GET response from the daemon into v.
func (d *daemon) getJSON(c *http.Client, path string, v any) error {
	resp, err := c.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// mallocs reads the daemon's cumulative heap allocation count from the
// runtime statistics that close its text heap profile.
func (d *daemon) mallocs(c *http.Client) (float64, error) {
	resp, err := c.Get(d.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# Mallocs = "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("daemon heap profile has no Mallocs line")
}

// post submits one job and waits for its report.
func (d *daemon) post(ctx context.Context, c *http.Client, job cell, shrink int) (reply, error) {
	r := reply{cell: job, sent: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/jobs", bytes.NewReader(job.body(shrink)))
	if err != nil {
		return r, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return r, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(r.sent)
	r.bytes = len(b)
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("POST %s: %s: %s", job.exp, resp.Status, bytes.TrimSpace(b))
	}
	return r, json.Unmarshal(b, &r.view)
}

// checkReply verifies one response: the job succeeded, it hit the cache
// exactly when expected, and a hit served the cell's first report bytes.
func checkReply(r reply, primed map[string][]byte) error {
	switch {
	case r.view.State != "succeeded":
		return fmt.Errorf("%s seed %d: state %q: %s", r.exp, r.seed, r.view.State, r.view.Error)
	case r.view.CacheHit != !r.cold:
		return fmt.Errorf("%s seed %d: cacheHit %v, expected %v", r.exp, r.seed, r.view.CacheHit, !r.cold)
	case len(r.view.Report) == 0:
		return fmt.Errorf("%s seed %d: empty report", r.exp, r.seed)
	case !r.cold && !bytes.Equal(r.view.Report, primed[r.exp]):
		return fmt.Errorf("%s seed %d: hit report differs from the first response", r.exp, r.seed)
	}
	return nil
}

// runServe drives hwgc-serve in a closed loop: two clients, each waiting
// for its previous report before sending the next request. Every pass runs
// against a fresh daemon, so each pass does the same work from the same
// state and the daemon's memory, which grows with every cold cell it has
// simulated, is bounded by one pass.
func runServe(p params) (outcome, error) {
	sc := newServeScale(p.tiny)
	var out outcome
	// On SIGTERM or an interrupt, abandon the run but still drain and reap
	// the daemon on the way out.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer cancel()
	client := &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients},
	}
	defer client.CloseIdleConnections()

	var (
		passes  []passResult
		primed0 map[string][]byte
	)
	for pass := 0; pass < passCount(p.seconds, servePass); pass++ {
		pr, err := runServePass(ctx, p, sc, client, pass)
		if err != nil {
			return out, fmt.Errorf("pass %d: %w", pass, err)
		}
		if pass == 0 {
			primed0 = pr.primed
		}
		// A fresh daemon must compute the warm cells byte for byte again.
		for _, exp := range warmExps {
			if !bytes.Equal(pr.primed[exp], primed0[exp]) {
				out.check(fmt.Errorf("pass %d: %s report differs from pass 0", pass, exp))
			}
		}
		for _, r := range pr.replies {
			out.check(checkReply(r, pr.primed))
		}
		out.check(pr.stopErr)
		passes = append(passes, pr)
	}

	var starts, walls, rates, allocs, rss, hitP50s, hits, colds []float64
	for _, pr := range passes {
		starts = append(starts, pr.start.Seconds())
		walls = append(walls, pr.wall.Seconds())
		rates = append(rates, pr.cycles/1e6/pr.wall.Seconds())
		allocs = append(allocs, pr.mallocs/1e6)
		rss = append(rss, pr.rss)
		var passHits []float64
		for _, r := range pr.replies {
			if r.cold {
				colds = append(colds, ms(r.latency))
			} else {
				passHits = append(passHits, ms(r.latency))
			}
		}
		hits = append(hits, passHits...)
		hitP50s = append(hitP50s, median(passHits))
	}
	out.set("setup_s", "s", median(starts))
	// Host contention only ever slows a pass down: report the best one.
	// The p99 needs every pass's hits.
	out.set("wall_s", "s", slices.Min(walls))
	out.set("sim_mcycles_per_s", "Mcycles/s", slices.Max(rates))
	out.set("hit_p50_ms", "ms", slices.Min(hitP50s))
	out.set("hit_p99_ms", "ms", quantile(hits, 0.99))
	out.set("cold_p50_ms", "ms", median(colds))
	out.set("host_allocs_m", "M", median(allocs))
	out.set("peak_rss_mb", "MiB", median(rss))
	if p.trace {
		return out, serveLayers(p, passes, &out)
	}
	return out, nil
}

// passResult is one serve pass as the client, the daemon and /proc saw it.
type passResult struct {
	start   time.Duration     // daemon start until /readyz answered
	primed  map[string][]byte // the warm cells' first reports
	replies []reply
	wall    time.Duration // the traffic, priming excluded
	cycles  float64       // simulated by the pass's cold cells
	mallocs float64       // daemon heap allocations during the traffic
	cpu     float64       // daemon CPU seconds during the traffic
	rss     float64       // daemon VmHWM, MiB
	hits    float64       // result-cache hits during the traffic
	misses  float64       // result-cache misses during the traffic
	rtt     []float64     // GET /healthz round trips, ms (traced runs)
	stopErr error         // how the daemon's graceful drain ended
}

// runServePass starts a daemon, primes the warm set (those first responses
// are the references hits must match), and sends one pass of traffic: each
// client sends sc.perClient requests, cycling through the warm set, with a
// cold cell whose seed no request has used before every sc.coldEvery
// requests, the two clients half a period apart. It then stops the daemon
// with SIGTERM and reaps it.
func runServePass(ctx context.Context, p params, sc serveScale, c *http.Client, pass int) (pr passResult, err error) {
	t := time.Now()
	d, err := startDaemon(ctx, p.serve, filepath.Join(p.outDir, "hwgc-serve.log"))
	if err != nil {
		return pr, err
	}
	pr.start = time.Since(t)
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop()
		}
	}()

	pr.primed = make(map[string][]byte)
	for _, exp := range warmExps {
		r, err := d.post(ctx, c, cell{exp: exp, seed: p.seed, cold: true}, sc.shrink)
		if err == nil {
			err = checkReply(r, pr.primed)
		}
		if err != nil {
			return pr, fmt.Errorf("prime %s: %w", exp, err)
		}
		pr.primed[exp] = r.view.Report
	}
	before, err := d.counters(c)
	if err != nil {
		return pr, err
	}

	coldsPerClient := (sc.perClient + sc.coldEvery - 1) / sc.coldEvery
	replies := make([][]reply, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	// The clients' own garbage is collected between passes, so the
	// benchmark's collector never competes with the daemon for the host.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	start := time.Now()
	for cl := 0; cl < serveClients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			colds := 0
			for i := 0; i < sc.perClient; i++ {
				job := cell{exp: warmExps[(i+cl)%len(warmExps)], seed: p.seed}
				if (i+cl*sc.coldEvery/2)%sc.coldEvery == 0 {
					job = cell{exp: coldExp, cold: true, seed: p.seed + 1 +
						uint64((pass*serveClients+cl)*coldsPerClient+colds)}
					colds++
				}
				r, err := d.post(ctx, c, job, sc.shrink)
				if err != nil {
					errs[cl] = err
					return
				}
				replies[cl] = append(replies[cl], r)
			}
		}(cl)
	}
	wg.Wait()
	pr.wall = time.Since(start)
	debug.SetGCPercent(gcPercent)
	if err := errors.Join(errs...); err != nil {
		return pr, err
	}
	after, err := d.counters(c)
	if err != nil {
		return pr, err
	}
	pr.mallocs, pr.cpu = after.mallocs-before.mallocs, after.cpu-before.cpu
	pr.hits, pr.misses = after.hits-before.hits, after.misses-before.misses

	for _, rs := range replies {
		for _, r := range rs {
			if r.cold {
				var prog struct {
					Cycles float64 `json:"cyclesSimulated"`
				}
				if err := d.getJSON(c, "/v1/jobs/"+r.view.ID+"/progress", &prog); err != nil {
					return pr, err
				}
				pr.cycles += prog.Cycles
			}
			pr.replies = append(pr.replies, r)
		}
	}
	if p.trace {
		if pr.rtt, err = d.healthzRTT(c, 100); err != nil {
			return pr, err
		}
	}
	if pr.rss, err = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return pr, err
	}
	stopped = true
	pr.stopErr = d.stop()
	return pr, nil
}

// daemonCounters are cumulative daemon figures read between traffic.
type daemonCounters struct{ mallocs, cpu, hits, misses float64 }

// counters reads the daemon's heap allocation count, CPU time and
// result-cache hits and misses.
func (d *daemon) counters(c *http.Client) (daemonCounters, error) {
	var k daemonCounters
	var err error
	if k.mallocs, err = d.mallocs(c); err != nil {
		return k, err
	}
	if k.cpu, err = cpuSeconds(d.cmd.Process.Pid); err != nil {
		return k, err
	}
	var m map[string]float64
	if err := d.getJSON(c, "/v1/metrics", &m); err != nil {
		return k, err
	}
	k.hits, k.misses = m["resultcache.hits"], m["resultcache.misses"]
	return k, nil
}

// healthzRTT times n GET /healthz round trips: the transport floor.
func (d *daemon) healthzRTT(c *http.Client, n int) ([]float64, error) {
	rtt := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		resp, err := c.Get(d.base + "/healthz")
		if err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rtt = append(rtt, ms(time.Since(t)))
	}
	return rtt, nil
}

// serveLayers derives the per-layer figures of a traced serve run from
// the job views' timestamps, the daemon's metrics, and /proc. Each
// request becomes an http.post span with service.queue and service.run
// children taken from the daemon's clock (the same host clock).
func serveLayers(p params, passes []passResult, out *outcome) error {
	tr := newTracer(passes[0].replies[0].sent)
	root := tr.record(0, "serve", "serve", tr.t0, time.Now())
	var (
		queue, run               = map[bool][]float64{}, map[bool][]float64{}
		overhead, size, rtt, cpu []float64
		hits, misses             float64
	)
	for _, pr := range passes {
		for _, r := range pr.replies {
			v := r.view
			if v.Started == nil || v.Finished == nil {
				return fmt.Errorf("job %s has no start or finish time", v.ID)
			}
			id := tr.record(root, v.ID, "http.post", r.sent, r.sent.Add(r.latency))
			tr.record(id, v.ID, "service.queue", v.Submitted, *v.Started)
			tr.record(id, v.ID, "service.run", *v.Started, *v.Finished)
			queue[r.cold] = append(queue[r.cold], ms(v.Started.Sub(v.Submitted)))
			run[r.cold] = append(run[r.cold], ms(v.Finished.Sub(*v.Started)))
			overhead = append(overhead, ms(r.latency-v.Finished.Sub(v.Submitted)))
			size = append(size, float64(r.bytes)/1024)
		}
		rtt = append(rtt, pr.rtt...)
		cpu = append(cpu, pr.cpu)
		hits += pr.hits
		misses += pr.misses
	}
	out.set("service.queue_wait_ms.hit", "ms", median(queue[false]))
	out.set("service.queue_wait_ms.cold", "ms", median(queue[true]))
	out.set("service.run_ms.hit", "ms", median(run[false]))
	out.set("service.run_ms.cold", "ms", median(run[true]))
	out.set("http.overhead_ms", "ms", median(overhead))
	out.set("http.healthz_rtt_ms", "ms", median(rtt))
	out.set("resultcache.hit_frac", "fraction", hits/(hits+misses))
	out.set("service.response_kib", "KiB", mean(size))
	out.set("daemon.cpu_s", "s", median(cpu))
	return tr.write(p.outDir, fmt.Sprintf("serve-seed%d.spans.json", p.seed))
}

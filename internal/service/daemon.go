package service

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"
)

// Daemon binds a Scheduler and its HTTP API (the coordinator's
// /cluster/v1/ endpoints included) to a listener and manages the
// graceful-shutdown sequence: when the run context is cancelled, the
// scheduler drains first (submissions 503 while status queries keep
// working and remote workers keep completing leases), then the HTTP server
// shuts down. Run returns nil on a clean drain, so the process can exit 0
// on SIGINT/SIGTERM.
type Daemon struct {
	// Addr is the listen address (e.g. ":8077"; ":0" picks a free port).
	Addr string
	// Scheduler serves the jobs. Required.
	Scheduler *Scheduler
	// EnablePprof overlays net/http/pprof under /debug/pprof/ (opt-in; see
	// withPprof).
	EnablePprof bool
	// DrainTimeout bounds how long in-flight jobs may keep running after
	// shutdown begins before being cancelled (<= 0 means 30s).
	DrainTimeout time.Duration
	// Logf, when set, receives progress lines (listen address, drain).
	Logf func(format string, args ...any)

	mu sync.Mutex
	ln net.Listener
}

// Listen binds the daemon's address. Run calls it implicitly; tests call
// it first so Addr() is known before the server is up.
func (d *Daemon) Listen() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ln != nil {
		return nil
	}
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		return err
	}
	d.ln = ln
	return nil
}

// ListenAddr returns the bound address after Listen ("" before).
func (d *Daemon) ListenAddr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Run serves until ctx is cancelled, then drains and returns. A nil
// return means the shutdown was clean (every job completed or was
// cancelled at the drain deadline, the listener closed).
func (d *Daemon) Run(ctx context.Context) error {
	if err := d.Listen(); err != nil {
		return err
	}
	d.logf("hwgc-serve: listening on %s", d.ListenAddr())

	handler := NewHandler(d.Scheduler)
	if d.EnablePprof {
		handler = withPprof(handler)
		d.logf("hwgc-serve: pprof enabled under /debug/pprof/")
	}
	srv := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(d.ln) }()

	select {
	case err := <-serveErr:
		// Listener died before shutdown was requested.
		return err
	case <-ctx.Done():
	}

	timeout := d.DrainTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	d.logf("hwgc-serve: draining (timeout %s)", timeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	_ = d.Scheduler.Drain(drainCtx)

	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil {
		_ = srv.Close()
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	d.logf("hwgc-serve: drained, exiting")
	return nil
}

func (d *Daemon) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

package cluster

// The loopback transport: workers in the coordinator's own process, bound
// with direct function calls (*Coordinator implements Client). Every
// hwgc-serve cell simulated in-process and every cluster test run through
// this — identical code paths to the wire, minus HTTP.

import (
	"context"
	"fmt"
	"sync"
)

// LoopbackPool is a set of in-process workers driving one coordinator.
type LoopbackPool struct {
	cancel  context.CancelFunc
	workers []*Worker
	wg      sync.WaitGroup

	mu   sync.Mutex
	errs []error
}

// StartLoopbackWorkers launches n in-process workers against c. base
// parameterizes every worker (Client and Name are overridden per worker;
// Name gets a "-N" suffix when base.Name is set, "loopback-N" otherwise).
// Unset Runners and Log default to the coordinator's.
func StartLoopbackWorkers(c *Coordinator, n int, base WorkerConfig) (*LoopbackPool, error) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &LoopbackPool{cancel: cancel}
	if base.Runners == nil {
		base.Runners = c.Runners()
	}
	if base.Log == nil {
		base.Log = c.cfg.Log
	}
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Client = c
		if base.Name == "" {
			cfg.Name = fmt.Sprintf("loopback-%d", i)
		} else {
			cfg.Name = fmt.Sprintf("%s-%d", base.Name, i)
		}
		w, err := NewWorker(cfg)
		if err != nil {
			cancel()
			p.wg.Wait()
			return nil, err
		}
		p.workers = append(p.workers, w)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			if err := w.Run(ctx); err != nil {
				p.mu.Lock()
				p.errs = append(p.errs, err)
				p.mu.Unlock()
			}
		}()
	}
	return p, nil
}

// Worker returns pool member i (for Kill in crash tests).
func (p *LoopbackPool) Worker(i int) *Worker { return p.workers[i] }

// Len returns the pool size.
func (p *LoopbackPool) Len() int { return len(p.workers) }

// Kill abandons worker i abruptly — its in-flight leases are dropped and
// recovered by coordinator lease expiry.
func (p *LoopbackPool) Kill(i int) { p.workers[i].Kill() }

// Stop shuts the pool down gracefully: workers finish and complete their
// in-flight leases, then exit. Returns the first worker error, if any.
func (p *LoopbackPool) Stop() error {
	p.cancel()
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.errs) > 0 {
		return p.errs[0]
	}
	return nil
}

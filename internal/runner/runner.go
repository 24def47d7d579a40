// Package runner schedules independent experiment jobs across a
// fixed-size worker pool with deterministic aggregation. The paper's
// evaluation is a large grid of independent VM runs (benchmark × size
// × seed × grid-point); every job is a pure function of its inputs, so
// the only thing concurrency may not change is the order results are
// combined in. Map therefore returns results in input order regardless
// of completion order, which makes parallel output byte-identical to
// the serial harness.
//
// The pool also keeps observability counters — jobs completed/total,
// modeled VM cycles simulated, wall-clock rate, ETA — surfaced to an
// optional per-job hook (cbsbench -progress renders it as a meter).
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is a snapshot of a pool's counters at one point in time.
type Progress struct {
	JobsDone  int64
	JobsTotal int64
	Cycles    uint64 // modeled VM cycles simulated so far
	Elapsed   time.Duration
}

// Mcyc returns modeled megacycles simulated so far. The progress meter
// and the perf-trajectory JSON emitter both read this accessor, so the
// number on the live meter and the number in BENCH_*.json come from
// the same accumulator by construction.
func (p Progress) Mcyc() float64 { return float64(p.Cycles) / 1e6 }

// Rate returns modeled megacycles simulated per wall-clock second.
func (p Progress) Rate() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return p.Mcyc() / p.Elapsed.Seconds()
}

// ETA estimates remaining wall-clock time from the mean job cost so
// far; zero until the first job completes.
func (p Progress) ETA() time.Duration {
	if p.JobsDone == 0 || p.JobsTotal <= p.JobsDone {
		return 0
	}
	perJob := p.Elapsed / time.Duration(p.JobsDone)
	return perJob * time.Duration(p.JobsTotal-p.JobsDone)
}

// Pool is a worker pool plus its progress counters. A Pool is cheap to
// create; experiments make one per top-level table/figure so JobsTotal
// and ETA describe that artifact alone.
type Pool struct {
	workers int

	start     time.Time
	jobsDone  atomic.Int64
	jobsTotal atomic.Int64
	cycles    atomic.Uint64

	hookMu sync.Mutex
	hook   func(Progress)
}

// New returns a pool with the given worker count. workers <= 1 selects
// the serial path (jobs run inline on the caller's goroutine); 0 is
// treated as 1 so a zero Config stays serial by default.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if max := runtime.GOMAXPROCS(0) * 4; workers > max {
		workers = max // no point queueing far beyond the scheduler
	}
	return &Pool{workers: workers, start: time.Now()}
}

// SetHook installs a function called (serialized) after every job
// completes. Install before the first Map call.
func (p *Pool) SetHook(h func(Progress)) { p.hook = h }

// AddCycles adds modeled VM cycles to the pool's counters; jobs call
// it after each VM run.
func (p *Pool) AddCycles(n uint64) { p.cycles.Add(n) }

// Snapshot returns the current counters.
func (p *Pool) Snapshot() Progress {
	return Progress{
		JobsDone:  p.jobsDone.Load(),
		JobsTotal: p.jobsTotal.Load(),
		Cycles:    p.cycles.Load(),
		Elapsed:   time.Since(p.start),
	}
}

// finishJob bumps the done counter and notifies the hook.
func (p *Pool) finishJob() {
	p.jobsDone.Add(1)
	if p.hook != nil {
		p.hookMu.Lock()
		p.hook(p.Snapshot())
		p.hookMu.Unlock()
	}
}

// Map runs fn over every item on the pool's workers and returns the
// results in input order: results[i] is fn(i, items[i]) no matter
// which worker ran it or when it finished. If several jobs fail, the
// error of the lowest index is returned — the same error a serial
// loop would have hit first — so error output is deterministic too.
// A nil pool runs serially.
func Map[T, R any](p *Pool, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	if p == nil {
		p = New(1)
	}
	p.jobsTotal.Add(int64(len(items)))
	results := make([]R, len(items))

	if p.workers <= 1 || len(items) <= 1 {
		for i, it := range items {
			r, err := fn(i, it)
			p.finishJob()
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, len(items))
	idx := make(chan int)
	workers := p.workers
	if workers > len(items) {
		workers = len(items)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = fn(i, items[i])
				p.finishJob()
			}
		}()
	}
	for i := range items {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

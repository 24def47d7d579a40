package main

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"gocbs/internal/stats"
)

// The box this benchmark runs on changes its clock under it: the same
// code runs a quarter slower in one second than in the next, for seconds
// or minutes at a time, on both CPUs together. Every CPU-bound time in a
// run stretches by the same factor, so a run that happens to sit in the
// slow mode reads a quarter slower whatever the code under test does. The
// speedometer measures that factor while the workload runs, and every
// wall-clock figure the benchmark reports is scaled back to the nominal
// speed: what the time would have been had the box held its fast clock
// throughout. README.md has the measurements behind this.
const (
	// nominalStepNs is what one step of the calibration loop costs at the
	// box's fast clock. It only fixes the scale of the reported numbers; a
	// different box shifts them all by one constant factor.
	nominalStepNs = 1.65
	meterEvery    = 4 * time.Millisecond
	meterReps     = 2000
)

// speedSample is one calibration slice: when it ran and what a step cost.
type speedSample struct {
	at     time.Duration // since the meter started
	stepNs float64
}

// speedometer samples the machine's speed from a thread of its own for as
// long as a workload runs. On this two-CPU box the slices take under a
// tenth of one CPU.
type speedometer struct {
	t0   time.Time
	stop chan struct{}
	done chan struct{}
	code []int32
	regs []int64
	sink int64 // keeps the calibration loop's result live

	mu      sync.Mutex
	samples []speedSample
}

// calibrationSlice times a fixed run of a toy stack machine: loads,
// stores, data-dependent branches and a switch, the instruction mix of an
// interpreter. A plain arithmetic chain tracks the clock too, but slows
// down less than the system under test does when the box is in its slow
// mode; this loop slows down by the same share.
func (s *speedometer) calibrationSlice() float64 {
	code, stack := s.code, s.regs
	var acc int64
	steps := 0
	t0 := time.Now()
	for rep := 0; rep < meterReps; rep++ {
		sp := 0
		for pc := 0; pc < len(code); pc++ {
			steps++
			switch code[pc] & 7 {
			case 0:
				stack[sp] = int64(code[pc] >> 3)
				sp++
			case 1:
				if sp > 1 {
					stack[sp-2] += stack[sp-1]
					sp--
				}
			case 2:
				if sp > 1 {
					stack[sp-2] ^= stack[sp-1] << 1
					sp--
				}
			case 3:
				if sp > 0 {
					acc += stack[sp-1]
					sp--
				}
			case 4:
				stack[sp] = acc & 0xff
				sp++
			case 5:
				if sp > 0 && stack[sp-1]&1 == 0 {
					pc++
				}
			case 6:
				if sp > 0 {
					stack[sp-1] = stack[sp-1]*31 + 7
				}
			case 7:
				if sp > 0 {
					stack[0] = stack[sp-1]
				}
			}
			if sp >= len(stack)-1 {
				sp = 1
			}
		}
	}
	d := time.Since(t0)
	s.sink += acc
	return float64(d.Nanoseconds()) / float64(steps)
}

func startSpeedometer() *speedometer {
	s := &speedometer{
		t0: time.Now(), stop: make(chan struct{}), done: make(chan struct{}),
		code: make([]int32, 97), regs: make([]int64, 64),
	}
	x := uint32(12345)
	for i := range s.code {
		x = x*1664525 + 1013904223
		s.code[i] = int32(x >> 8)
	}
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(meterEvery)
		defer tick.Stop()
		for {
			at := time.Since(s.t0)
			step := s.calibrationSlice()
			s.mu.Lock()
			s.samples = append(s.samples, speedSample{at: at, stepNs: step})
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// halt stops the meter and waits until its goroutine has ended.
func (s *speedometer) halt() {
	close(s.stop)
	<-s.done
}

// slowdown is how much slower than nominal the box ran between from and
// to: the median step cost of the slices inside the interval (at least
// the three nearest ones), over the nominal cost. A slice that was
// preempted reads slow, never fast, and the median ignores it.
func (s *speedometer) slowdown(from, to time.Time) float64 {
	a, b := from.Sub(s.t0), to.Sub(s.t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.samples)
	if n == 0 {
		return 1
	}
	lo := sort.Search(n, func(i int) bool { return s.samples[i].at >= a })
	hi := sort.Search(n, func(i int) bool { return s.samples[i].at > b })
	for hi-lo < 3 && (lo > 0 || hi < n) {
		if lo > 0 {
			lo--
		}
		if hi < n {
			hi++
		}
	}
	steps := make([]float64, 0, hi-lo)
	for _, sm := range s.samples[lo:hi] {
		steps = append(steps, sm.stepNs)
	}
	return stats.Median(steps) / nominalStepNs
}

// nominal scales a duration measured between from and to back to the
// nominal machine speed.
func (s *speedometer) nominal(from, to time.Time) time.Duration {
	return time.Duration(float64(to.Sub(from)) / s.slowdown(from, to))
}

// meanSlowdown is the whole run's mean slowdown, for the report.
func (s *speedometer) meanSlowdown() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 1
	}
	steps := make([]float64, len(s.samples))
	for i, sm := range s.samples {
		steps[i] = sm.stepNs
	}
	return stats.Mean(steps) / nominalStepNs
}

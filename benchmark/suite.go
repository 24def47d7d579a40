package main

import (
	"embed"
	"fmt"
	"sync"
	"time"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/mj"
	"gocbs/internal/profiler"
	"gocbs/internal/stats"
)

// timerPeriod is the virtual timer granularity every profiled VM here
// runs with — the experiment pipeline's default.
const timerPeriod = 3_000_000

// refFuel bounds a reference-interpreter run; the largest suite program
// needs well under a hundredth of it.
const refFuel = 1 << 40

//go:embed kernels/*.mj
var kernelFS embed.FS

// program is one MJ program ready to run: its prepared bytecode (never
// mutated — whoever rewrites code clones first) and the result an
// independent interpreter says main(size) must return.
type program struct {
	name    string
	source  string
	size    int64
	steady  int // bench.Benchmark.SteadyIters
	code    *bytecode.Program
	version string
	want    int64
}

// cbsConfig is the paper's default operating point, RVM flavour.
func cbsConfig(seed int64) profiler.Config {
	return profiler.Config{Stride: 3, SamplesPerTick: 16, Flavour: profiler.FlavourRVM, Seed: seed}
}

// programNames is the subset a workload runs: names itself, cut to the
// smoke subset under --smoke.
func (e *env) programNames(names []string) []string {
	if !e.cfg.smoke {
		return names
	}
	var out []string
	for _, n := range names {
		for _, s := range smokeNames {
			if n == s {
				out = append(out, n)
			}
		}
	}
	return out
}

// prepareJIT compiles MJ source the way cbsvm, the experiment pipeline and
// the daemon's plan compiler all do: lowest optimisation level plus
// trivial inlining, so call-site ids line up across the fleet.
func prepareJIT(op liveSpan, source string) (*bytecode.Program, error) {
	sp := op.child("mj.compile")
	code, err := mj.Compile(source)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = op.child("inline.trivial")
	_, err = inline.Optimize(code, inline.Trivial{}, nil, inline.DefaultOptions())
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("trivial inlining: %w", err)
	}
	return code, nil
}

// reference computes main(size) with the MJ reference interpreter, which
// shares the front end with the compiler under test but none of the code
// generator, the optimisers or the VM.
func reference(op liveSpan, source string, size int64) (int64, error) {
	sp := op.child("mj.ref_interp")
	defer sp.end()
	toks, err := mj.Lex(source)
	if err != nil {
		return 0, err
	}
	ast, err := mj.Parse(toks)
	if err != nil {
		return 0, err
	}
	if err := mj.Check(ast); err != nil {
		return 0, err
	}
	return mj.NewRefInterp(ast, refFuel).CallFunction("main", size)
}

// loadSuite prepares the named suite programs at the small input (a quarter
// of it under --smoke). With withReference it also computes their expected
// results: the reference interpreter is the slow part of set-up.
func loadSuite(e *env, names []string, withReference bool) ([]*program, error) {
	progs := make([]*program, len(names))
	for i, name := range names {
		b := bench.ByName(name)
		if b == nil {
			return nil, fmt.Errorf("no suite program named %q", name)
		}
		op := e.tr.root("setup.program")
		code, err := prepareJIT(op, b.Source)
		op.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		progs[i] = &program{
			name: name, source: b.Source, size: b.Small, steady: b.SteadyIters,
			code: code, version: code.Version(),
		}
		if e.cfg.smoke {
			progs[i].size = b.Small / 4
		}
	}
	if !withReference {
		return progs, nil
	}
	if err := fillReferences(e, progs); err != nil {
		return nil, err
	}
	if e.cfg.corruptExpectation {
		progs[0].want++
	}
	return progs, nil
}

// twoAtATime calls f(0..n-1) from two goroutines — set-up is CPU-bound and
// the box has two cores — and returns the first error by index.
func twoAtATime(n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func fillReferences(e *env, progs []*program) error {
	return twoAtATime(len(progs), func(i int) error {
		op := e.tr.root("setup.reference")
		defer op.end()
		var err error
		if progs[i].want, err = reference(op, progs[i].source, progs[i].size); err != nil {
			return fmt.Errorf("%s: reference interpreter: %w", progs[i].name, err)
		}
		return nil
	})
}

// loadKernels compiles the opcode-class microkernels. They are not
// trivially inlined: a kernel made of calls must keep its calls.
func loadKernels(e *env, size int64) ([]*program, error) {
	progs := make([]*program, len(kernelNames))
	for i, name := range kernelNames {
		src, err := kernelFS.ReadFile("kernels/" + name + ".mj")
		if err != nil {
			return nil, err
		}
		code, err := mj.Compile(string(src))
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", name, err)
		}
		progs[i] = &program{name: name, source: string(src), size: size, code: code}
	}
	if err := fillReferences(e, progs); err != nil {
		return nil, err
	}
	return progs, nil
}

// timeSetup runs a workload's set-up setupReps times from scratch and
// reports the median as setup_s. It returns the last repetition's state;
// discard releases the earlier ones (nil when there is nothing to
// release).
func timeSetup[T any](e *env, setup func() (T, error), discard func(T)) (T, error) {
	var state T
	var secs []float64
	for rep := 0; rep < e.setupReps(); rep++ {
		if rep > 0 && discard != nil {
			discard(state)
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return state, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, e.meter.nominal(t0, time.Now()).Seconds())
		state = s
	}
	e.set("setup_s", stats.Median(secs))
	return state, nil
}

// Package experiment regenerates every table and figure of the paper's
// evaluation (§6) on the MJ VM substrate: Table 1 (benchmark
// characteristics), Tables 2A/2B (overhead/accuracy grids over Stride ×
// Samples-per-tick for the Jikes RVM and J9 flavours), Table 3
// (per-benchmark base vs CBS), and Figure 5 (speedup from
// profile-directed inlining under timer-only vs CBS profiles), plus the
// supplementary studies indexed in DESIGN.md (convergence, skew
// ablation, §3 comparators, old-vs-new inliner, context sensitivity).
// Artifacts is the one list of them; cmd/cbsbench is driven by it.
//
// Every experiment fans its independent (benchmark × size × seed ×
// grid-point) jobs across an internal/runner worker pool. Jobs are
// pure functions of their inputs — each gets a private clone of a
// once-compiled program and a profiler RNG seeded from the job key —
// and results are folded in input order, so output is byte-identical
// at any Config.Parallel setting.
package experiment

import (
	"fmt"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/runner"
	"gocbs/internal/stats"
	"gocbs/internal/vm"
)

// DefaultTimerPeriod is the virtual timer granularity in modeled
// cycles. It plays the role of the paper's 10 ms hard floor on timer
// interrupts: large relative to call rates, so a timer-only profiler
// starves for samples on short runs (a small benchmark run sees only
// a handful of ticks), which is exactly the regime §3.3 describes.
const DefaultTimerPeriod = 3_000_000

// Config holds experiment-wide knobs.
type Config struct {
	TimerPeriod uint64
	// Seeds lists profiler RNG seeds; medians are taken across them
	// (the analog of the paper's median of 10 runs).
	Seeds []int64
	// Benchmarks restricts the suite (nil = all).
	Benchmarks []*bench.Benchmark
	// MaxSteps caps each VM run.
	MaxSteps uint64
	// Samples is Table 2's samples-per-tick row set; nil means
	// DefaultSamples (cbsbench -full passes FullSamples).
	Samples []int

	// Parallel is the worker count experiment jobs fan out over;
	// 0 or 1 runs the serial path. Any setting produces byte-identical
	// results: jobs are independent and aggregation is input-ordered.
	Parallel int
	// Progress, when non-nil, receives a counter snapshot after every
	// completed job (cbsbench -progress renders it as a meter).
	Progress func(runner.Progress)

	// cache serves clones of once-compiled benchmarks; nil falls back
	// to recompiling per call (zero-value Configs stay usable).
	cache *runner.ProgramCache
	// pool is attached by each experiment entry point so helpers can
	// report modeled cycles to the progress counters.
	pool *runner.Pool
}

// DefaultConfig returns the configuration used by the committed
// EXPERIMENTS.md numbers.
func DefaultConfig() Config {
	return Config{
		TimerPeriod: DefaultTimerPeriod,
		Seeds:       []int64{11, 42, 1973},
		Benchmarks:  bench.All(),
		MaxSteps:    4_000_000_000,
		cache:       runner.NewProgramCache(compileJITOnly),
	}
}

// QuickConfig returns a cheaper configuration for smoke tests and
// testing.B benchmarks.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Seeds = []int64{42}
	return c
}

// startPool attaches a worker pool sized by c.Parallel to this Config
// copy and returns it. Experiment entry points call it once so that
// nested helpers can account modeled cycles against the same meter.
func (c *Config) startPool() *runner.Pool {
	p := runner.New(c.Parallel)
	if c.Progress != nil {
		p.SetHook(c.Progress)
	}
	c.pool = p
	return p
}

// addCycles reports modeled VM cycles to the attached pool, if any.
func (c Config) addCycles(n uint64) {
	if c.pool != nil {
		c.pool.AddCycles(n)
	}
}

// compileJITOnly compiles a benchmark in the §6.2 "JIT-only"
// configuration (inline.JITOnly).
func compileJITOnly(b *bench.Benchmark) (*bytecode.Program, error) {
	prog, err := b.Compile()
	if err != nil {
		return nil, err
	}
	if err := inline.JITOnly(prog); err != nil {
		return nil, fmt.Errorf("%s: trivial inlining: %w", b.Name, err)
	}
	return prog, nil
}

// prepare returns a private JIT-only program for the benchmark: a deep
// clone of the cached compilation when a cache is attached, a fresh
// compile otherwise. Callers may mutate the result freely (the inliner
// rewrites methods in place) without affecting other jobs.
func (c Config) prepare(b *bench.Benchmark) (*bytecode.Program, error) {
	if c.cache != nil {
		return c.cache.Get(b)
	}
	return compileJITOnly(b)
}

// newVM is the one place a study makes a VM: prog, as prepare returns
// it, under the given profiler parts, capped at c.MaxSteps. A CBS part
// brings its flavour's epilogue rule, and the timer runs at
// c.TimerPeriod exactly when some part listens for its ticks.
func (c Config) newVM(prog *bytecode.Program, parts ...vm.Profiler) *vm.VM {
	m := vm.New(prog)
	m.MaxSteps = c.MaxSteps
	m.SetProfiler(parts...)
	for _, p := range parts {
		if cbs, ok := p.(*profiler.CBS); ok {
			m.EpilogueYieldpoints = cbs.Config().Flavour.EpilogueYieldpoints()
		}
		if _, ok := p.(vm.TickListener); ok {
			m.SetTimer(c.TimerPeriod)
		}
	}
	return m
}

// run runs m's program once through main(size) and meters its cycles.
func (c Config) run(m *vm.VM, size int64) error {
	if _, err := m.Run(size); err != nil {
		return err
	}
	c.addCycles(m.Cycles)
	return nil
}

// session is a suite program begun on a VM under the setup/iter
// protocol (bench.Setup), for a study that times iterations.
type session struct {
	cfg  Config
	m    *vm.VM
	iter *bytecode.Method
}

// start runs setup(size) on m, metered, and returns the session.
func (c Config) start(m *vm.VM, size int64) (*session, error) {
	iter, err := bench.Setup(m, size)
	if err != nil {
		return nil, err
	}
	c.addCycles(m.Cycles)
	return &session{cfg: c, m: m, iter: iter}, nil
}

// iters calls iter() n times and returns, metered, the cycles they took.
func (s *session) iters(n int) (uint64, error) {
	before := s.m.Cycles
	for i := 0; i < n; i++ {
		if _, err := s.m.Call(s.iter); err != nil {
			return 0, err
		}
	}
	s.cfg.addCycles(s.m.Cycles - before)
	return s.m.Cycles - before, nil
}

// PerfectDCG runs a benchmark exhaustively in the JIT-only
// configuration and returns the ground-truth call graph.
func PerfectDCG(cfg Config, b *bench.Benchmark, size int64) (*profile.DCG, error) {
	prog, err := cfg.prepare(b)
	if err != nil {
		return nil, err
	}
	e := profiler.NewExhaustive()
	if err := cfg.run(cfg.newVM(prog, e), size); err != nil {
		return nil, fmt.Errorf("%s perfect run: %w", b.Name, err)
	}
	return e.Graph, nil
}

// AccuracyResult is one profiler measurement against a perfect profile.
type AccuracyResult struct {
	OverheadPct float64 // profiling cycles / base cycles × 100
	Accuracy    float64 // overlap with the perfect profile, 0–100
	Samples     float64 // samples taken
}

// seedMeas is one single-seed CBS measurement, the unit the parallel
// grids fan out over before taking per-configuration medians.
type seedMeas struct {
	ovh, acc, smp float64
}

// measureOneSeed runs one benchmark once under a fully seeded CBS
// configuration and scores it against the given perfect profile.
func measureOneSeed(cfg Config, b *bench.Benchmark, size int64, pc profiler.Config, perfect *profile.DCG) (seedMeas, error) {
	prog, err := cfg.prepare(b)
	if err != nil {
		return seedMeas{}, err
	}
	c := profiler.NewCBS(pc)
	m := cfg.newVM(prog, c)
	if err := cfg.run(m, size); err != nil {
		return seedMeas{}, fmt.Errorf("%s cbs run: %w", b.Name, err)
	}
	return seedMeas{
		ovh: m.Overhead() * 100,
		acc: profile.Accuracy(c.Graph, perfect),
		smp: float64(c.SamplesTaken),
	}, nil
}

// medianMeas folds single-seed measurements into the per-configuration
// medians reported everywhere (the analog of the paper's median of 10
// runs).
func medianMeas(ms []seedMeas) AccuracyResult {
	var ovh, acc, smp []float64
	for _, m := range ms {
		ovh = append(ovh, m.ovh)
		acc = append(acc, m.acc)
		smp = append(smp, m.smp)
	}
	return AccuracyResult{
		OverheadPct: stats.Median(ovh),
		Accuracy:    stats.Median(acc),
		Samples:     stats.Median(smp),
	}
}

// MeasureCBS runs one benchmark under a CBS configuration (median over
// cfg.Seeds) and scores it against the given perfect profile.
func MeasureCBS(cfg Config, b *bench.Benchmark, size int64, pc profiler.Config, perfect *profile.DCG) (AccuracyResult, error) {
	ms := make([]seedMeas, 0, len(cfg.Seeds))
	for _, seed := range cfg.Seeds {
		pcs := pc
		pcs.Seed = seed
		m, err := measureOneSeed(cfg, b, size, pcs, perfect)
		if err != nil {
			return AccuracyResult{}, err
		}
		ms = append(ms, m)
	}
	return medianMeas(ms), nil
}

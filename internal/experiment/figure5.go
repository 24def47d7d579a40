package experiment

import (
	"fmt"
	"strings"

	"gocbs/internal/adaptive"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/runner"
	"gocbs/internal/vm"
)

// Figure 5: the client experiment. Each benchmark is profiled online
// during a warmup phase, recompiled with a profile-directed inlining
// policy, and then measured in steady state — the analog of the paper's
// "iterate two minutes, measure the second minute" protocol.

// Figure5Row reports one benchmark's speedups over the non-profile
// baseline, plus the compile-time effect of each profile.
type Figure5Row struct {
	Name string

	TimerSpeedupPct float64
	CBSSpeedupPct   float64

	BaselineCompileCycles uint64
	TimerCompileCycles    uint64
	CBSCompileCycles      uint64

	BaselineIterCycles uint64
	TimerIterCycles    uint64
	CBSIterCycles      uint64
}

// Figure5VM selects which of the paper's two graphs to regenerate.
type Figure5VM int

// Figure 5 variants.
const (
	Figure5Jikes Figure5VM = iota // left graph: Jikes RVM, new inliner
	Figure5J9                     // right graph: J9, static vs dynamic heuristics
)

func (f Figure5VM) String() string {
	if f == Figure5J9 {
		return "J9"
	}
	return "JikesRVM"
}

// profilePhase runs warmup iterations under a profiler and returns the
// DCG it collected. The profiled program is the same one later
// optimized, so call-site IDs line up.
func profilePhase(cfg Config, prog *bytecode.Program, size int64, pc profiler.Config, warmupIters int) (*profile.DCG, error) {
	c := profiler.NewCBS(pc)
	s, err := cfg.start(cfg.newVM(prog, c), size)
	if err != nil {
		return nil, err
	}
	if _, err := s.iters(warmupIters); err != nil {
		return nil, err
	}
	return c.Graph, nil
}

// steadyState measures cycles per iteration on an (already optimized)
// program with profiling off.
func steadyState(cfg Config, prog *bytecode.Program, size int64, iters int) (uint64, error) {
	s, err := cfg.start(cfg.newVM(prog), size)
	if err != nil {
		return 0, err
	}
	cycles, err := s.iters(iters)
	return cycles / uint64(iters), err
}

// buildOptimized compiles a fresh copy, profiles it (unless pc is nil),
// recompiles under the policy, and reports steady-state cycles.
func buildOptimized(cfg Config, b *bench.Benchmark, size int64, policy inline.Policy, pc *profiler.Config, warmup, measure int) (uint64, adaptive.CompileStats, error) {
	prog, err := cfg.prepare(b)
	if err != nil {
		return 0, adaptive.CompileStats{}, err
	}
	var g *profile.DCG
	if pc != nil {
		g, err = profilePhase(cfg, prog, size, *pc, warmup)
		if err != nil {
			return 0, adaptive.CompileStats{}, err
		}
	}
	st, err := adaptive.Recompile(prog, vm.DefaultCostModel(), policy, g, inline.DefaultOptions())
	if err != nil {
		return 0, adaptive.CompileStats{}, err
	}
	per, err := steadyState(cfg, prog, size, measure)
	if err != nil {
		return 0, adaptive.CompileStats{}, err
	}
	return per, st, nil
}

// Figure5 regenerates one of the paper's Figure 5 graphs.
//
// Jikes variant: baseline is the new inliner with no profile; the two
// measured configurations feed it timer-only and CBS profiles.
//
// J9 variant: baseline is the purely static heuristics; the measured
// configurations use the dynamic heuristics (cold-site suppression +
// hot-site boosting) fed by timer-only and CBS profiles. With the
// timer-only profile most benchmarks are expected to *lose* performance
// versus the static baseline.
func Figure5(cfg Config, which Figure5VM, input string) ([]Figure5Row, error) {
	var basePolicy, profPolicy inline.Policy
	var flavour profiler.Flavour
	var cbsCfg profiler.Config
	switch which {
	case Figure5Jikes:
		basePolicy = inline.NewNewLinear()
		profPolicy = inline.NewNewLinear()
		flavour = profiler.FlavourRVM
		cbsCfg = profiler.DefaultCBS(flavour)
	default:
		basePolicy = inline.NewJ9Static()
		profPolicy = inline.NewJ9Dynamic()
		flavour = profiler.FlavourJ9
		cbsCfg = profiler.Config{Stride: 7, SamplesPerTick: 32, Flavour: flavour}
	}
	timerCfg := profiler.TimerOnly(flavour)
	if len(cfg.Seeds) > 0 {
		timerCfg.Seed = cfg.Seeds[0]
		cbsCfg.Seed = cfg.Seeds[0]
	}

	// One runner job per (benchmark × {baseline, timer, cbs}) build.
	pool := cfg.startPool()
	type build struct {
		per uint64
		st  adaptive.CompileStats
	}
	type job struct {
		bi, variant int
	}
	const nVariants = 3
	var jobs []job
	for bi := range cfg.Benchmarks {
		for v := 0; v < nVariants; v++ {
			jobs = append(jobs, job{bi: bi, variant: v})
		}
	}
	builds, err := runner.Map(pool, jobs, func(_ int, j job) (build, error) {
		b := cfg.Benchmarks[j.bi]
		size := b.SizeFor(input)
		warmup := b.SteadyIters
		measure := b.SteadyIters
		var (
			per uint64
			st  adaptive.CompileStats
			err error
		)
		switch j.variant {
		case 0:
			per, st, err = buildOptimized(cfg, b, size, basePolicy, nil, warmup, measure)
			if err != nil {
				err = fmt.Errorf("%s baseline: %w", b.Name, err)
			}
		case 1:
			per, st, err = buildOptimized(cfg, b, size, profPolicy, &timerCfg, warmup, measure)
			if err != nil {
				err = fmt.Errorf("%s timer: %w", b.Name, err)
			}
		default:
			per, st, err = buildOptimized(cfg, b, size, profPolicy, &cbsCfg, warmup, measure)
			if err != nil {
				err = fmt.Errorf("%s cbs: %w", b.Name, err)
			}
		}
		return build{per: per, st: st}, err
	})
	if err != nil {
		return nil, err
	}

	rows := make([]Figure5Row, len(cfg.Benchmarks))
	for bi, b := range cfg.Benchmarks {
		base := builds[bi*nVariants]
		timer := builds[bi*nVariants+1]
		cbs := builds[bi*nVariants+2]
		rows[bi] = Figure5Row{
			Name:                  b.Name,
			TimerSpeedupPct:       speedup(base.per, timer.per),
			CBSSpeedupPct:         speedup(base.per, cbs.per),
			BaselineCompileCycles: base.st.CompileCycles,
			TimerCompileCycles:    timer.st.CompileCycles,
			CBSCompileCycles:      cbs.st.CompileCycles,
			BaselineIterCycles:    base.per,
			TimerIterCycles:       timer.per,
			CBSIterCycles:         cbs.per,
		}
	}
	return rows, nil
}

// speedup converts per-iteration cycle counts into a percentage
// speedup of opt over base (positive = opt is faster).
func speedup(base, opt uint64) float64 {
	if opt == 0 {
		return 0
	}
	return (float64(base)/float64(opt) - 1) * 100
}

// FormatFigure5 renders the speedup series.
func FormatFigure5(which Figure5VM, rows []Figure5Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5 (%s): %% speedup from profile-directed inlining vs non-profile baseline\n", which)
	fmt.Fprintf(&sb, "%-12s %12s %12s %22s\n", "Benchmark", "timer-only", "cbs", "compile-cycles Δ(cbs)")
	var tAvg, cAvg, compBase, compCBS float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %11.2f%% %11.2f%% %21.1f%%\n",
			r.Name, r.TimerSpeedupPct, r.CBSSpeedupPct,
			(float64(r.CBSCompileCycles)/float64(r.BaselineCompileCycles)-1)*100)
		tAvg += r.TimerSpeedupPct
		cAvg += r.CBSSpeedupPct
		compBase += float64(r.BaselineCompileCycles)
		compCBS += float64(r.CBSCompileCycles)
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(&sb, "%-12s %11.2f%% %11.2f%% %21.1f%%\n",
			"average", tAvg/n, cAvg/n, (compCBS/compBase-1)*100)
	}
	return sb.String()
}

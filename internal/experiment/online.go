package experiment

import (
	"fmt"
	"strings"

	"gocbs/internal/adaptive"
	"gocbs/internal/bench"
	"gocbs/internal/inline"
	"gocbs/internal/profiler"
	"gocbs/internal/runner"
)

// E14: the online adaptive system. Unlike Figure 5's two-phase
// methodology (profile, stop, recompile, measure), this study runs the
// full pipeline the way a real VM does: the CBS profiler builds the
// DCG *while* the adaptive controller watches timer-tick hotness
// samples and recompiles hot methods mid-run with profile-directed
// inlining. The observable is the warmup curve: cycles per iteration
// falling as optimized code replaces baseline code.

// OnlineRow summarizes one benchmark's online-adaptation run.
type OnlineRow struct {
	Name string

	FirstIterCycles uint64 // mean of the first 3 iterations
	LastIterCycles  uint64 // mean of the last 3 iterations
	WarmupPct       float64

	MethodsRecompiled int
	InlinesApplied    int
	CompileCycles     uint64
}

// Online runs the online adaptive system over the suite.
func Online(cfg Config, input string) ([]OnlineRow, error) {
	seed := int64(42)
	if len(cfg.Seeds) > 0 {
		seed = cfg.Seeds[0]
	}
	// One job per benchmark: the adaptive run is a single inherently
	// serial pipeline (profile → recompile → keep running).
	pool := cfg.startPool()
	return runner.Map(pool, cfg.Benchmarks, func(_ int, b *bench.Benchmark) (OnlineRow, error) {
		size := b.SizeFor(input)
		iters := b.SteadyIters * 3

		prog, err := cfg.prepare(b)
		if err != nil {
			return OnlineRow{}, err
		}
		pc := profiler.DefaultCBS(profiler.FlavourRVM)
		pc.Seed = seed
		cbs := profiler.NewCBS(pc)
		ctl := adaptive.NewController(prog, inline.NewNewLinear(), cbs.Graph, inline.DefaultOptions(), 2)
		s, err := cfg.start(cfg.newVM(prog, cbs, ctl), size)
		if err != nil {
			return OnlineRow{}, fmt.Errorf("%s setup: %w", b.Name, err)
		}
		perIter := make([]uint64, iters)
		for i := range perIter {
			if perIter[i], err = s.iters(1); err != nil {
				return OnlineRow{}, fmt.Errorf("%s iter %d: %w", b.Name, i, err)
			}
		}
		if ctl.Err != nil {
			return OnlineRow{}, fmt.Errorf("%s controller: %w", b.Name, ctl.Err)
		}

		mean3 := func(xs []uint64) uint64 {
			var s uint64
			for _, x := range xs {
				s += x
			}
			return s / uint64(len(xs))
		}
		first := mean3(perIter[:3])
		last := mean3(perIter[len(perIter)-3:])
		return OnlineRow{
			Name:              b.Name,
			FirstIterCycles:   first,
			LastIterCycles:    last,
			WarmupPct:         speedup(first, last),
			MethodsRecompiled: ctl.Stats.MethodsCompiled,
			InlinesApplied:    ctl.Stats.InlinesApplied,
			CompileCycles:     ctl.Stats.CompileCycles,
		}, nil
	})
}

// FormatOnline renders the study.
func FormatOnline(rows []OnlineRow) string {
	var sb strings.Builder
	sb.WriteString("Online adaptive system: warmup from baseline to optimized code\n")
	fmt.Fprintf(&sb, "%-12s %14s %14s %9s %10s %8s %12s\n",
		"Benchmark", "first cyc/it", "last cyc/it", "warmup", "recompiled", "inlines", "compile cyc")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %14d %14d %8.2f%% %10d %8d %12d\n",
			r.Name, r.FirstIterCycles, r.LastIterCycles, r.WarmupPct,
			r.MethodsRecompiled, r.InlinesApplied, r.CompileCycles)
	}
	return sb.String()
}

package experiment

import (
	"bytes"
	"fmt"
	"strings"

	"gocbs/internal/bench"
	"gocbs/internal/mincover"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/runner"
)

// ProfilerRow is one benchmark's three-way profile-source comparison.
// Overheads are profiling cycles as a percentage of base cycles;
// accuracies are overlap with the perfect profile.
type ProfilerRow struct {
	Name             string
	ExhaustivePct    float64 // exhaustive instrumentation's overhead
	CBSPct           float64 // CBS, median over seeds
	CBSAccuracy      float64
	MincoverPct      float64 // minimum-coverage instrumentation, after recovery
	MincoverAccuracy float64
	ProbedSites      int // static call points carrying a probe ...
	TotalSites       int // ... out of this many
	// Exact reports that mincover's recovered DCG was byte-identical
	// to the exhaustive profile of the same deterministic run.
	Exact bool
}

// ProfilerStudy is the three-way accuracy-vs-overhead comparison of
// the fleet's profile sources — exhaustive instrumentation, CBS
// sampling, and minimum-coverage instrumentation — per benchmark, all
// in the JIT-only configuration and scored against the same perfect
// profile.
func ProfilerStudy(cfg Config, input string) ([]ProfilerRow, error) {
	pool := cfg.startPool()
	return runner.Map(pool, cfg.Benchmarks, func(_ int, b *bench.Benchmark) (ProfilerRow, error) {
		size := b.SizeFor(input)
		perfect, err := PerfectDCG(cfg, b, size)
		if err != nil {
			return ProfilerRow{}, err
		}

		// Exhaustive with modeled per-call counter cost: the accuracy
		// ceiling and the overhead ceiling at once.
		prog, err := cfg.prepare(b)
		if err != nil {
			return ProfilerRow{}, err
		}
		m := cfg.newVM(prog, profiler.NewInstrumented())
		if err := cfg.run(m, size); err != nil {
			return ProfilerRow{}, fmt.Errorf("%s instrumented: %w", b.Name, err)
		}
		exhaustivePct := m.Overhead() * 100

		// CBS at the paper's default operating point, median over seeds.
		cbs, err := MeasureCBS(cfg, b, size, profiler.DefaultCBS(profiler.FlavourRVM), perfect)
		if err != nil {
			return ProfilerRow{}, err
		}

		// Mincover: deterministic, so a single run measures it fully.
		mprog, err := cfg.prepare(b)
		if err != nil {
			return ProfilerRow{}, err
		}
		mc := mincover.New(mprog)
		mv := cfg.newVM(mprog, mc)
		if err := cfg.run(mv, size); err != nil {
			return ProfilerRow{}, fmt.Errorf("%s mincover: %w", b.Name, err)
		}
		if err := mc.Finalize(); err != nil {
			return ProfilerRow{}, fmt.Errorf("%s mincover: %w", b.Name, err)
		}
		if mc.Unexpected != 0 {
			return ProfilerRow{}, fmt.Errorf("%s mincover: %d edges outside the static graph", b.Name, mc.Unexpected)
		}
		c := mc.Cover
		return ProfilerRow{
			Name:             b.Name,
			ExhaustivePct:    exhaustivePct,
			CBSPct:           cbs.OverheadPct,
			CBSAccuracy:      cbs.Accuracy,
			MincoverPct:      mv.Overhead() * 100,
			MincoverAccuracy: profile.Accuracy(mc.Graph, perfect),
			ProbedSites:      c.NumProbes(),
			TotalSites:       c.NumPoints(),
			// Canonical encoding: the byte-equality the differential tests gate on.
			Exact: bytes.Equal(mc.Graph.Encode(), perfect.Encode()),
		}, nil
	})
}

// FormatProfilers renders the study for the terminal.
func FormatProfilers(rows []ProfilerRow) string {
	var sb strings.Builder
	sb.WriteString("Profile sources: overhead (profiling cycles / base cycles) vs accuracy (overlap with perfect)\n")
	fmt.Fprintf(&sb, "%-12s %9s  %8s %7s  %8s %7s %11s %6s\n",
		"Benchmark", "exh ovh", "cbs ovh", "cbs acc", "mc ovh", "mc acc", "probes", "exact")
	for _, r := range rows {
		exact := "no"
		if r.Exact {
			exact = "yes"
		}
		fmt.Fprintf(&sb, "%-12s %8.1f%% %7.1f%% %7.1f %7.1f%% %7.1f %6d/%-4d %6s\n",
			r.Name, r.ExhaustivePct, r.CBSPct, r.CBSAccuracy,
			r.MincoverPct, r.MincoverAccuracy, r.ProbedSites, r.TotalSites, exact)
	}
	return sb.String()
}

package experiment

import (
	"fmt"
	"strings"

	"gocbs/internal/bench"
	"gocbs/internal/inline"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/runner"
	"gocbs/internal/stats"
	"gocbs/internal/vm"
)

// ---------------------------------------------------------------------
// E8: convergence — accuracy as a function of executed cycles. §2 and
// §4 claim CBS "rapidly converges on a high-accuracy profile"; this
// study plots accuracy checkpoints for timer-only vs CBS.

// ConvergencePoint is one accuracy checkpoint.
type ConvergencePoint struct {
	MCycles float64
	Timer   float64
	CBS     float64
}

// convergenceProbe, installed after a CBS profiler, snapshots its
// accuracy every tick.
type convergenceProbe struct {
	inner   *profiler.CBS
	perfect *profile.DCG
	points  []ConvergencePoint // only MCycles + one series filled
}

func (p *convergenceProbe) OnTimerTick(m *vm.VM) {
	p.points = append(p.points, ConvergencePoint{
		MCycles: float64(m.Cycles) / 1e6,
		Timer:   profile.Accuracy(p.inner.Graph, p.perfect),
	})
}

// Name implements vm.Profiler.
func (p *convergenceProbe) Name() string { return "convergence-probe" }

var _ vm.Profiler = (*convergenceProbe)(nil)

// Convergence measures accuracy-over-time for one benchmark. The two
// probe series run as parallel jobs after the shared perfect profile.
func Convergence(cfg Config, b *bench.Benchmark, input string) ([]ConvergencePoint, error) {
	pool := cfg.startPool()
	size := b.SizeFor(input)
	perfect, err := PerfectDCG(cfg, b, size)
	if err != nil {
		return nil, err
	}
	runSeries := func(pc profiler.Config) ([]ConvergencePoint, error) {
		prog, err := cfg.prepare(b)
		if err != nil {
			return nil, err
		}
		probe := &convergenceProbe{inner: profiler.NewCBS(pc), perfect: perfect}
		if err := cfg.run(cfg.newVM(prog, probe.inner, probe), size); err != nil {
			return nil, err
		}
		return probe.points, nil
	}
	seed := int64(42)
	if len(cfg.Seeds) > 0 {
		seed = cfg.Seeds[0]
	}
	timerCfg, cbsCfg := profiler.TimerOnly(profiler.FlavourRVM), profiler.DefaultCBS(profiler.FlavourRVM)
	timerCfg.Seed, cbsCfg.Seed = seed, seed
	series, err := runner.Map(pool, []profiler.Config{timerCfg, cbsCfg}, func(_ int, pc profiler.Config) ([]ConvergencePoint, error) {
		return runSeries(pc)
	})
	if err != nil {
		return nil, err
	}
	timer, cbs := series[0], series[1]
	n := len(timer)
	if len(cbs) < n {
		n = len(cbs)
	}
	out := make([]ConvergencePoint, n)
	for i := 0; i < n; i++ {
		out[i] = ConvergencePoint{MCycles: timer[i].MCycles, Timer: timer[i].Timer, CBS: cbs[i].Timer}
	}
	return out, nil
}

// FormatConvergence renders the two series.
func FormatConvergence(name string, pts []ConvergencePoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Convergence study (%s): accuracy vs executed megacycles\n", name)
	fmt.Fprintf(&sb, "%10s %12s %12s\n", "Mcycles", "timer-only", "cbs(3,16)")
	step := len(pts)/20 + 1
	for i := 0; i < len(pts); i += step {
		p := pts[i]
		fmt.Fprintf(&sb, "%10.1f %12.1f %12.1f\n", p.MCycles, p.Timer, p.CBS)
	}
	if len(pts) > 0 {
		p := pts[len(pts)-1]
		fmt.Fprintf(&sb, "%10.1f %12.1f %12.1f  (final)\n", p.MCycles, p.Timer, p.CBS)
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// E9: initial-skip ablation — §4's randomized skip versus round-robin
// versus always-sampling-immediately (the skew CBS is designed to
// avoid).

// SkewRow is one skip policy's suite-mean accuracy.
type SkewRow struct {
	Policy   string
	Accuracy float64
}

// SkewAblation compares skip policies at a wide stride where the
// choice of initial skip matters most. Perfect profiles are computed
// once per benchmark (they are policy-independent), then one job runs
// per (policy × benchmark).
func SkewAblation(cfg Config, input string, stride, samples int) ([]SkewRow, error) {
	pool := cfg.startPool()
	policies := []profiler.SkipPolicy{profiler.SkipRandom, profiler.SkipRoundRobin, profiler.SkipImmediate}

	perfects, err := runner.Map(pool, cfg.Benchmarks, func(_ int, b *bench.Benchmark) (*profile.DCG, error) {
		return PerfectDCG(cfg, b, b.SizeFor(input))
	})
	if err != nil {
		return nil, err
	}

	type job struct {
		pi, bi int
	}
	var jobs []job
	for pi := range policies {
		for bi := range cfg.Benchmarks {
			jobs = append(jobs, job{pi: pi, bi: bi})
		}
	}
	accs, err := runner.Map(pool, jobs, func(_ int, j job) (float64, error) {
		b := cfg.Benchmarks[j.bi]
		res, err := MeasureCBS(cfg, b, b.SizeFor(input), profiler.Config{
			Stride: stride, SamplesPerTick: samples,
			Flavour: profiler.FlavourRVM, SkipPolicy: policies[j.pi],
		}, perfects[j.bi])
		if err != nil {
			return 0, err
		}
		return res.Accuracy, nil
	})
	if err != nil {
		return nil, err
	}

	var rows []SkewRow
	for pi, sp := range policies {
		n := len(cfg.Benchmarks)
		rows = append(rows, SkewRow{
			Policy:   sp.String(),
			Accuracy: stats.Mean(accs[pi*n : (pi+1)*n]),
		})
	}
	return rows, nil
}

// FormatSkew renders the ablation.
func FormatSkew(rows []SkewRow, stride, samples int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Initial-skip ablation (stride=%d, samples=%d): suite-mean accuracy\n", stride, samples)
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-14s %6.1f\n", r.Policy, r.Accuracy)
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// E10: §3 comparators — exhaustive instrumentation (Vortex-style PIC
// counters), Whaley's timer-based stack sampler, Suganuma-style code
// patching, against timer-only and CBS.

// ComparatorRow is one technique's suite-mean overhead and accuracy.
type ComparatorRow struct {
	Technique   string
	OverheadPct float64
	Accuracy    float64
}

// Comparators measures every §3 technique on the suite: perfect
// profiles first (one job per benchmark), then one job per
// (benchmark × technique).
func Comparators(cfg Config, input string) ([]ComparatorRow, error) {
	pool := cfg.startPool()
	order := []string{"exhaustive-instrumented", "whaley", "code-patching", "timer-only", "cbs(3,16)"}

	perfects, err := runner.Map(pool, cfg.Benchmarks, func(_ int, b *bench.Benchmark) (*profile.DCG, error) {
		return PerfectDCG(cfg, b, b.SizeFor(input))
	})
	if err != nil {
		return nil, err
	}

	type job struct {
		bi, ti int
	}
	type pair struct {
		ovh, acc float64
	}
	var jobs []job
	for bi := range cfg.Benchmarks {
		for ti := range order {
			jobs = append(jobs, job{bi: bi, ti: ti})
		}
	}
	meas, err := runner.Map(pool, jobs, func(_ int, j job) (pair, error) {
		b := cfg.Benchmarks[j.bi]
		size := b.SizeFor(input)
		perfect := perfects[j.bi]
		if name := order[j.ti]; name == "timer-only" || name == "cbs(3,16)" {
			pc := profiler.DefaultCBS(profiler.FlavourRVM)
			if name == "timer-only" {
				pc = profiler.TimerOnly(profiler.FlavourRVM)
			}
			res, err := MeasureCBS(cfg, b, size, pc, perfect)
			return pair{res.OverheadPct, res.Accuracy}, err
		}
		prog, err := cfg.prepare(b)
		if err != nil {
			return pair{}, err
		}
		var p vm.Profiler
		var g *profile.DCG
		switch order[j.ti] {
		case "exhaustive-instrumented":
			inst := profiler.NewInstrumented()
			p, g = inst, inst.Graph
		case "whaley":
			wh := profiler.NewWhaley()
			p, g = wh, wh.Graph
		default: // code-patching
			pt := profiler.NewPatching(len(prog.Methods), 100, 64)
			p, g = pt, pt.Graph
		}
		m := cfg.newVM(prog, p)
		if err := cfg.run(m, size); err != nil {
			return pair{}, err
		}
		return pair{m.Overhead() * 100, profile.Accuracy(g, perfect)}, nil
	})
	if err != nil {
		return nil, err
	}

	// Fold benchmark-major, matching the serial harness's append order.
	ovh := make([][]float64, len(order))
	acc := make([][]float64, len(order))
	for bi := range cfg.Benchmarks {
		for ti := range order {
			p := meas[bi*len(order)+ti]
			ovh[ti] = append(ovh[ti], p.ovh)
			acc[ti] = append(acc[ti], p.acc)
		}
	}
	var rows []ComparatorRow
	for ti, name := range order {
		rows = append(rows, ComparatorRow{
			Technique:   name,
			OverheadPct: stats.Mean(ovh[ti]),
			Accuracy:    stats.Mean(acc[ti]),
		})
	}
	return rows, nil
}

// FormatComparators renders the §3 comparison.
func FormatComparators(rows []ComparatorRow) string {
	var sb strings.Builder
	sb.WriteString("Profiling-technique comparison (suite means)\n")
	fmt.Fprintf(&sb, "%-26s %12s %10s\n", "Technique", "overhead%", "accuracy")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-26s %12.2f %10.1f\n", r.Technique, r.OverheadPct, r.Accuracy)
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// E11: old-vs-new inliner — §5.1 reports the new linear-threshold
// inliner beat the old conservative one by ~3% on average even with
// timer-only profiles.

// InlinerRow is one benchmark's steady-state comparison.
type InlinerRow struct {
	Name            string
	TimerSpeedupPct float64 // new vs old inliner under timer profiles
	CBSSpeedupPct   float64 // new vs old inliner under CBS profiles
}

// InlinerAblation compares OldJikes and NewLinear under identical
// profiles.
func InlinerAblation(cfg Config, input string) ([]InlinerRow, error) {
	timerCfg := profiler.TimerOnly(profiler.FlavourRVM)
	cbsCfg := profiler.DefaultCBS(profiler.FlavourRVM)
	if len(cfg.Seeds) > 0 {
		timerCfg.Seed = cfg.Seeds[0]
		cbsCfg.Seed = cfg.Seeds[0]
	}
	// One job per (benchmark × {old,new} × {timer,cbs}) build.
	pool := cfg.startPool()
	type job struct {
		bi, vi int
	}
	const nVariants = 4
	var jobs []job
	for bi := range cfg.Benchmarks {
		for vi := 0; vi < nVariants; vi++ {
			jobs = append(jobs, job{bi: bi, vi: vi})
		}
	}
	builds, err := runner.Map(pool, jobs, func(_ int, j job) (uint64, error) {
		b := cfg.Benchmarks[j.bi]
		size := b.SizeFor(input)
		w, msr := b.SteadyIters, b.SteadyIters
		var policy inline.Policy
		if j.vi == 0 || j.vi == 2 {
			policy = inline.NewOldJikes()
		} else {
			policy = inline.NewNewLinear()
		}
		pc := &timerCfg
		if j.vi >= 2 {
			pc = &cbsCfg
		}
		per, _, err := buildOptimized(cfg, b, size, policy, pc, w, msr)
		return per, err
	})
	if err != nil {
		return nil, err
	}

	var rows []InlinerRow
	for bi, b := range cfg.Benchmarks {
		oldTimer := builds[bi*nVariants]
		newTimer := builds[bi*nVariants+1]
		oldCBS := builds[bi*nVariants+2]
		newCBS := builds[bi*nVariants+3]
		rows = append(rows, InlinerRow{
			Name:            b.Name,
			TimerSpeedupPct: speedup(oldTimer, newTimer),
			CBSSpeedupPct:   speedup(oldCBS, newCBS),
		})
	}
	return rows, nil
}

// FormatInliners renders the ablation.
func FormatInliners(rows []InlinerRow) string {
	var sb strings.Builder
	sb.WriteString("Inliner ablation: % speedup of new linear-threshold inliner over old conservative inliner\n")
	fmt.Fprintf(&sb, "%-12s %14s %14s\n", "Benchmark", "timer profiles", "cbs profiles")
	var t, c float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %13.2f%% %13.2f%%\n", r.Name, r.TimerSpeedupPct, r.CBSSpeedupPct)
		t += r.TimerSpeedupPct
		c += r.CBSSpeedupPct
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		fmt.Fprintf(&sb, "%-12s %13.2f%% %13.2f%%\n", "average", t/n, c/n)
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// E12: context sensitivity — CBS sampling full stacks into a
// calling-context tree, scored with the generalized overlap metric.

// ContextRow is one benchmark's context-sensitive measurement.
type ContextRow struct {
	Name            string
	FlatAccuracy    float64 // flat DCG accuracy of the same run
	CCTAccuracy     float64 // context-tree overlap vs exhaustive CCT
	CCTNodes        int
	PerfectCCTNodes int
	OverheadPct     float64
}

// ContextStudy measures CBS in FullStack mode. Each benchmark needs
// three independent runs — flat perfect DCG, exhaustive CCT, sampled
// CCS run — which fan out as separate jobs; the cheap overlap scoring
// happens in the input-ordered fold.
func ContextStudy(cfg Config, input string) ([]ContextRow, error) {
	pool := cfg.startPool()
	seed := int64(42)
	if len(cfg.Seeds) > 0 {
		seed = cfg.Seeds[0]
	}

	type runResult struct {
		flat *profile.DCG            // kind 0
		ex   *profiler.ExhaustiveCCT // kind 1
		cbs  *profiler.CBS           // kind 2
		ovh  float64
	}
	type job struct {
		bi, kind int
	}
	const nKinds = 3
	var jobs []job
	for bi := range cfg.Benchmarks {
		for k := 0; k < nKinds; k++ {
			jobs = append(jobs, job{bi: bi, kind: k})
		}
	}
	runs, err := runner.Map(pool, jobs, func(_ int, j job) (runResult, error) {
		b := cfg.Benchmarks[j.bi]
		size := b.SizeFor(input)
		switch j.kind {
		case 0:
			g, err := PerfectDCG(cfg, b, size)
			return runResult{flat: g}, err
		case 1:
			prog, err := cfg.prepare(b)
			if err != nil {
				return runResult{}, err
			}
			ex := profiler.NewExhaustiveCCT()
			err = cfg.run(cfg.newVM(prog, ex), size)
			return runResult{ex: ex}, err
		default:
			prog, err := cfg.prepare(b)
			if err != nil {
				return runResult{}, err
			}
			pc := profiler.DefaultCBS(profiler.FlavourRVM)
			pc.Seed, pc.FullStack = seed, true
			c := profiler.NewCBS(pc)
			m := cfg.newVM(prog, c)
			err = cfg.run(m, size)
			return runResult{cbs: c, ovh: m.Overhead() * 100}, err
		}
	})
	if err != nil {
		return nil, err
	}

	var rows []ContextRow
	for bi, b := range cfg.Benchmarks {
		perfectFlat := runs[bi*nKinds].flat
		ex := runs[bi*nKinds+1].ex
		cbsRun := runs[bi*nKinds+2]
		rows = append(rows, ContextRow{
			Name:            b.Name,
			FlatAccuracy:    profile.Accuracy(cbsRun.cbs.Graph, perfectFlat),
			CCTAccuracy:     profile.OverlapCCT(cbsRun.cbs.Tree, ex.Tree),
			CCTNodes:        cbsRun.cbs.Tree.NumNodes(),
			PerfectCCTNodes: ex.Tree.NumNodes(),
			OverheadPct:     cbsRun.ovh,
		})
	}
	return rows, nil
}

// FormatContext renders the context-sensitivity study.
func FormatContext(rows []ContextRow) string {
	var sb strings.Builder
	sb.WriteString("Context-sensitive extension: CBS sampling full stacks into a CCT\n")
	fmt.Fprintf(&sb, "%-12s %10s %10s %10s %12s %10s\n",
		"Benchmark", "flat acc", "cct acc", "cct nodes", "true nodes", "overhead%")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %10.1f %10.1f %10d %12d %10.2f\n",
			r.Name, r.FlatAccuracy, r.CCTAccuracy, r.CCTNodes, r.PerfectCCTNodes, r.OverheadPct)
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// E15: the §4 implementation-options discussion. In a VM whose method
// prologues already test a runtime flag, CBS overloads that flag and
// costs nothing while idle. A VM with no such test would pay "three
// executed instructions per method entry" always. This study measures
// that hypothetical: the always-on entry check's overhead across the
// suite, against the overloaded-flag implementation's.

// EntryCheckRow is one benchmark's comparison.
type EntryCheckRow struct {
	Name             string
	OverloadedPct    float64 // CBS via overloaded flag (the paper's design)
	ExplicitCheckPct float64 // plus 3 cycles on every method entry
}

// EntryCheckStudy measures both implementation options.
func EntryCheckStudy(cfg Config, input string) ([]EntryCheckRow, error) {
	seed := int64(42)
	if len(cfg.Seeds) > 0 {
		seed = cfg.Seeds[0]
	}
	// One job per (benchmark × entry-check cost).
	pool := cfg.startPool()
	type job struct {
		bi   int
		cost uint64
	}
	var jobs []job
	for bi := range cfg.Benchmarks {
		jobs = append(jobs, job{bi: bi, cost: 0}, job{bi: bi, cost: 3})
	}
	ovhs, err := runner.Map(pool, jobs, func(_ int, j job) (float64, error) {
		b := cfg.Benchmarks[j.bi]
		size := b.SizeFor(input)
		prog, err := cfg.prepare(b)
		if err != nil {
			return 0, err
		}
		pc := profiler.DefaultCBS(profiler.FlavourRVM)
		pc.Seed = seed
		m := cfg.newVM(prog, profiler.NewCBS(pc))
		m.EntryCheckCost = j.cost
		err = cfg.run(m, size)
		return m.Overhead() * 100, err
	})
	if err != nil {
		return nil, err
	}

	var rows []EntryCheckRow
	for bi, b := range cfg.Benchmarks {
		rows = append(rows, EntryCheckRow{
			Name:             b.Name,
			OverloadedPct:    ovhs[bi*2],
			ExplicitCheckPct: ovhs[bi*2+1],
		})
	}
	return rows, nil
}

// FormatEntryCheck renders the study.
func FormatEntryCheck(rows []EntryCheckRow) string {
	var sb strings.Builder
	sb.WriteString("Implementation options (§4): overloaded flag vs 3-instruction entry check\n")
	fmt.Fprintf(&sb, "%-12s %16s %18s\n", "Benchmark", "overloaded ovh%", "explicit-check ovh%")
	var a, bsum float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %16.3f %18.3f\n", r.Name, r.OverloadedPct, r.ExplicitCheckPct)
		a += r.OverloadedPct
		bsum += r.ExplicitCheckPct
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		fmt.Fprintf(&sb, "%-12s %16.3f %18.3f\n", "average", a/n, bsum/n)
	}
	return sb.String()
}

package experiment

import (
	"fmt"
	"strings"

	"gocbs/internal/adaptive"
	"gocbs/internal/bench"
	"gocbs/internal/dcgstore"
	"gocbs/internal/inline"
	"gocbs/internal/plan"
	"gocbs/internal/profiler"
	"gocbs/internal/runner"
	"gocbs/internal/vm"
)

// PlanLoop is the fleet PGO study: the closed collect-and-exploit loop
// the plan service enables, measured end to end. For each benchmark,
// K pusher VMs profile warmup iterations under CBS (distinct seeds —
// distinct sampling noise, as K real machines would have) and their
// graphs are aggregated in a dcgstore, exactly as cbsd aggregates
// pushed deltas. The store's snapshot is compiled into an inlining
// plan, a puller VM applies that plan to its own JIT-only clone, and
// steady-state cycles per iteration are compared against
//
//   - baseline: the JIT-only configuration (trivial inlines only), and
//   - local: the same VM inlining from its own exhaustive local
//     profile — the best any single machine can do without the fleet.
//
// The paper's claim, transported to the fleet setting: sampled CBS
// profiles are accurate enough that the centrally compiled plan
// recovers (nearly) all of the speedup an exhaustive local profile
// would buy.

// DefaultPlanLoopPushers is the fleet size K the study simulates.
const DefaultPlanLoopPushers = 4

// PlanLoopRow reports one benchmark's loop results.
type PlanLoopRow struct {
	Name    string
	Pushers int

	PlanDecisions int
	PlanEpoch     uint64

	BaselineIterCycles uint64
	PlanIterCycles     uint64
	LocalIterCycles    uint64

	// PlanSpeedupPct is the steady-state speedup of the plan-guided VM
	// over the JIT-only baseline; LocalSpeedupPct is the same for the
	// local-exhaustive inliner.
	PlanSpeedupPct  float64
	LocalSpeedupPct float64
}

// PlanLoop runs the study with K pushers per benchmark (K <= 0 selects
// DefaultPlanLoopPushers). One runner job per benchmark; every job is
// a pure function of (benchmark, seeds), so results are deterministic
// at any parallelism.
func PlanLoop(cfg Config, input string, pushers int) ([]PlanLoopRow, error) {
	if pushers <= 0 {
		pushers = DefaultPlanLoopPushers
	}
	seed := int64(42)
	if len(cfg.Seeds) > 0 {
		seed = cfg.Seeds[0]
	}
	pool := cfg.startPool()
	return runner.Map(pool, cfg.Benchmarks, func(_ int, b *bench.Benchmark) (PlanLoopRow, error) {
		size := b.SizeFor(input)
		warmup, measure := b.SteadyIters, b.SteadyIters

		// Collect: K pusher VMs profile under CBS and their graphs
		// aggregate in a store, deterministically (fixed merge order).
		store := dcgstore.New()
		for k := 0; k < pushers; k++ {
			prog, err := cfg.prepare(b)
			if err != nil {
				return PlanLoopRow{}, err
			}
			pc := profiler.Config{Stride: 3, SamplesPerTick: 16, Flavour: profiler.FlavourRVM, Seed: seed + int64(k)}
			g, err := profilePhase(cfg, prog, b, size, pc, warmup)
			if err != nil {
				return PlanLoopRow{}, fmt.Errorf("%s pusher %d: %w", b.Name, k, err)
			}
			store.MergeDCG(g)
		}

		// Plan: compile the aggregated graph against a pristine clone,
		// as the daemon does.
		pristine, err := cfg.prepare(b)
		if err != nil {
			return PlanLoopRow{}, err
		}
		p, err := plan.Compile(b.Name, pristine, store.Snapshot(), plan.DefaultParams(), nil)
		if err != nil {
			return PlanLoopRow{}, fmt.Errorf("%s plan: %w", b.Name, err)
		}

		// Exploit: the puller applies the fleet plan to its own clone.
		planned, err := cfg.prepare(b)
		if err != nil {
			return PlanLoopRow{}, err
		}
		if _, err := plan.Apply(planned, p, inline.DefaultOptions()); err != nil {
			return PlanLoopRow{}, fmt.Errorf("%s apply: %w", b.Name, err)
		}
		planPer, err := steadyState(cfg, planned, size, measure)
		if err != nil {
			return PlanLoopRow{}, err
		}

		// Baseline: JIT-only, no plan.
		baseline, err := cfg.prepare(b)
		if err != nil {
			return PlanLoopRow{}, err
		}
		basePer, err := steadyState(cfg, baseline, size, measure)
		if err != nil {
			return PlanLoopRow{}, err
		}

		// Local: one VM inlining from its own exhaustive profile.
		local, err := cfg.prepare(b)
		if err != nil {
			return PlanLoopRow{}, err
		}
		e := profiler.NewExhaustive()
		m := vm.New(local)
		m.MaxSteps = cfg.MaxSteps
		m.SetProfiler(e)
		if _, err := m.Call(local.MethodByName("$Globals.setup"), vm.IntV(size)); err != nil {
			return PlanLoopRow{}, err
		}
		for i := 0; i < warmup; i++ {
			if _, err := m.Call(local.MethodByName("$Globals.iter")); err != nil {
				return PlanLoopRow{}, err
			}
		}
		cfg.addCycles(m.Cycles)
		if _, err := adaptive.Recompile(local, vm.DefaultCostModel(), inline.NewNewLinear(), e.Graph, inline.DefaultOptions()); err != nil {
			return PlanLoopRow{}, err
		}
		localPer, err := steadyState(cfg, local, size, measure)
		if err != nil {
			return PlanLoopRow{}, err
		}

		return PlanLoopRow{
			Name:               b.Name,
			Pushers:            pushers,
			PlanDecisions:      len(p.Decisions),
			PlanEpoch:          p.Epoch,
			BaselineIterCycles: basePer,
			PlanIterCycles:     planPer,
			LocalIterCycles:    localPer,
			PlanSpeedupPct:     speedup(basePer, planPer),
			LocalSpeedupPct:    speedup(basePer, localPer),
		}, nil
	})
}

// FormatPlanLoop renders the study.
func FormatPlanLoop(rows []PlanLoopRow) string {
	var sb strings.Builder
	pushers := DefaultPlanLoopPushers
	if len(rows) > 0 {
		pushers = rows[0].Pushers
	}
	fmt.Fprintf(&sb, "Fleet PGO loop: %d CBS pushers -> aggregated plan -> pulling VM, steady-state speedup vs JIT-only\n", pushers)
	fmt.Fprintf(&sb, "%-12s %10s %12s %12s %14s\n", "Benchmark", "decisions", "plan", "local-exact", "plan recovers")
	var planAvg, localAvg float64
	for _, r := range rows {
		recovered := 100.0
		if r.LocalSpeedupPct > 0 {
			recovered = r.PlanSpeedupPct / r.LocalSpeedupPct * 100
		}
		fmt.Fprintf(&sb, "%-12s %10d %11.2f%% %11.2f%% %13.1f%%\n",
			r.Name, r.PlanDecisions, r.PlanSpeedupPct, r.LocalSpeedupPct, recovered)
		planAvg += r.PlanSpeedupPct
		localAvg += r.LocalSpeedupPct
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(&sb, "%-12s %10s %11.2f%% %11.2f%%\n", "average", "", planAvg/n, localAvg/n)
	}
	return sb.String()
}

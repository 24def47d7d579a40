package experiment

import (
	"fmt"
	"slices"
	"strings"

	"gocbs/internal/adaptive"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/dcgstore"
	"gocbs/internal/inline"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/puller"
	"gocbs/internal/runner"
	"gocbs/internal/vm"
)

// PlanLoop is the fleet PGO study: the closed collect-and-exploit loop
// the plan service enables, replayed in process round by round exactly
// as the repo benchmark's plan_loop workload drives it live. Per
// program, K pusher VMs run under CBS (pass s, pusher k: seed
// Seed+s·K+k) and push what they sampled since their last push into a
// dcgstore after every round; the store's snapshot is compiled with the
// previous round's plan as prior, as the daemon's plan service does; a
// changed plan is applied to a clone of the JIT-only program, replayed
// for one round against the pristine checksums, and goes live only if
// they agree. Speedups are modelled cycles of one round against the
// JIT-only program's.
//
// What the loop loses against a local exhaustive profile is read off a
// ladder, each rung one change away from the one above:
//
//	local      the VM's own exhaustive profile through adaptive.Recompile
//	           — the best a single machine does without the fleet: 100 %
//	exh/raw    the policy's own decisions on the same graph (plan.Extract
//	           on plan.Condition(g, 0, 0)): no floor, no band
//	exh/cond   the same graph through plan.Compile as the daemon
//	           conditions it: what the stability layer costs
//	cbs/raw    the merged CBS graph after the last round, no prior plan,
//	cbs/cond   unconditioned and conditioned: what sampling costs
//	live       the plan the prior chain serves after the last round: what
//	           hysteresis retention costs
//	no-hold    the same chain compiled with no prior, retaining nothing;
//	           it swaps when the decision set changes (Plan.Equal)
//
// and the first ReplayPasses passes are then continued to ReplayRounds
// rounds, to see whether the plan converges where the profile does.

// PlanLoopParams sizes the loop.
type PlanLoopParams struct {
	Pushers      int   // K VMs profiling each program
	Iters        int   // iter() calls a VM makes per round
	Rounds       int   // rounds a program gets to reach a good plan
	Passes       int   // sampling histories the ladder averages over
	ReplayPasses int   // the first so many passes run on to
	ReplayRounds int   // this many rounds
	Seed         int64 // base CBS seed
}

// DefaultPlanLoopParams is the repo benchmark's plan_loop sizing at the
// seed its recorded rows were taken at, so the study's live rung is
// that workload's quality_pct.
func DefaultPlanLoopParams() PlanLoopParams {
	return PlanLoopParams{Pushers: 2, Iters: 2, Rounds: 6, Passes: 5, ReplayPasses: 2, ReplayRounds: 40, Seed: 1}
}

// A plan is good once it buys planLoopGoodShare of the local-exhaustive
// speedup; a program whose local speedup is under planLoopMinLocalPct
// has nothing to recover and is not counted in rounds-to-good.
const (
	planLoopGoodShare   = 0.95
	planLoopMinLocalPct = 1.0
)

// PlanChainResult is what one plan chain made of a program's pushes.
type PlanChainResult struct {
	SpeedupPct   float64 // live program after Rounds rounds, mean over passes
	RoundsToGood float64 // first round with a good plan live, Rounds+1 if never, mean over passes
	// Pass 0 alone, after Rounds rounds:
	Decisions, Swaps int
	Epoch            uint64 // plans minted, one per change of the decision set
	GoodRound        int    // Rounds+1 if never
	Killed           int    // plans that failed to apply or verify, every pass and round
	// The replayed passes:
	ReplaySpeedupPct float64 // live program after ReplayRounds rounds, mean
	ReplaySwaps      int     // plans swapped in after round Rounds, summed
}

// PlanLoopRow is one program's ladder.
type PlanLoopRow struct {
	Name                    string
	BaseCycles, LocalCycles uint64 // one round, JIT-only and locally recompiled
	LocalSpeedupPct         float64

	ExhaustiveRawPct, ExhaustiveCondPct float64
	SampledRawPct, SampledCondPct       float64 // mean over passes
	Samples                             float64 // merged graph's weight after Rounds rounds, pass 0
	Windows                             float64 // the merged graph's window count then (DCG.Windows), pass 0
	OverlapPct                          float64 // of that graph with the local exhaustive one, mean over passes
	Live, NoHold                        PlanChainResult
}

// Eligible reports whether the program has a speedup worth recovering.
func (r PlanLoopRow) Eligible() bool { return r.LocalSpeedupPct >= planLoopMinLocalPct }

// PlanLoopResult is the study's output.
type PlanLoopResult struct {
	Params PlanLoopParams
	Rows   []PlanLoopRow
}

// PlanLoop runs the study. One runner job per benchmark; every job is a
// pure function of (benchmark, params), so results are deterministic at
// any parallelism. cfg.Seeds is not read: the passes are the seeds.
func PlanLoop(cfg Config, input string, lp PlanLoopParams) (PlanLoopResult, error) {
	pool := cfg.startPool()
	rows, err := runner.Map(pool, cfg.Benchmarks, func(_ int, b *bench.Benchmark) (PlanLoopRow, error) {
		row, err := planLoopProgram(cfg, b, b.SizeFor(input), lp)
		if err != nil {
			return row, fmt.Errorf("%s: %w", b.Name, err)
		}
		return row, nil
	})
	return PlanLoopResult{Params: lp, Rows: rows}, err
}

// loopSubject is a program and the references its plans are judged by.
type loopSubject struct {
	cfg      Config
	name     string
	pristine *bytecode.Program
	size     int64
	iters    int
	sums     []int64 // the pristine program's per-iteration checksums
	base     uint64  // its cycles for one round
}

// try applies a plan to a clone and replays one round, as the pulling VM
// does before a swap: ok is false when the plan does not apply cleanly
// or changes a checksum.
func (s *loopSubject) try(p *plan.Plan) (cycles uint64, ok bool) {
	candidate := s.pristine.Clone()
	if res, err := plan.Apply(candidate, p, inline.DefaultOptions()); err != nil || res.SkippedStale != 0 {
		return 0, false
	}
	sums, cycles, err := puller.RunRound(candidate, s.size, s.iters)
	s.cfg.addCycles(cycles)
	return cycles, err == nil && slices.Equal(sums, s.sums)
}

// fresh is the speedup of the plan a graph compiles to with no prior or,
// raw, of the policy's own decisions on the graph as given.
func (s *loopSubject) fresh(g *profile.DCG, raw bool) (float64, error) {
	var p *plan.Plan
	var err error
	if raw {
		p = &plan.Plan{Program: s.name}
		p.Decisions, err = plan.Extract(s.pristine, inline.NewNewLinear(), plan.Condition(g, 0, 0), inline.DefaultOptions())
	} else {
		p, err = plan.Compile(s.name, s.pristine, g, plan.DefaultParams(), nil)
	}
	if err != nil {
		return 0, err
	}
	cycles, ok := s.try(p)
	if !ok {
		return 0, fmt.Errorf("a plan compiled from its own program's profile failed verification")
	}
	return speedup(s.base, cycles), nil
}

// planChain is one plan service and its pulling VM: the plan last
// served, which the live chain compiles against as its prior and the
// no-hold chain does not, and the cycles of the program currently live.
type planChain struct {
	noHold        bool
	res           *PlanChainResult // where the chain's figures accumulate
	prior         *plan.Plan
	cycles        uint64
	swaps, killed int
	good          int // first round a good plan was live, Rounds+1 while none has been
	swapsAtRounds int
}

// pull is one puller round: compile the snapshot and, if the decisions
// changed, verify and swap.
func (c *planChain) pull(s *loopSubject, snapshot *profile.DCG) error {
	prior := c.prior
	if c.noHold {
		prior = nil
	}
	p, err := plan.Compile(s.name, s.pristine, snapshot, plan.DefaultParams(), prior)
	if err != nil {
		return err
	}
	if !p.Equal(c.prior) {
		c.prior = p
		if cycles, ok := s.try(p); ok {
			c.cycles = cycles
			c.swaps++
		} else {
			c.killed++
		}
	}
	return nil
}

func planLoopProgram(cfg Config, b *bench.Benchmark, size int64, lp PlanLoopParams) (PlanLoopRow, error) {
	row := PlanLoopRow{Name: b.Name}
	pristine, err := cfg.prepare(b)
	if err != nil {
		return row, err
	}
	s := &loopSubject{cfg: cfg, name: b.Name, pristine: pristine, size: size, iters: lp.Iters}
	if s.sums, s.base, err = puller.RunRound(pristine, size, lp.Iters); err != nil {
		return row, err
	}
	row.BaseCycles = s.base

	// Local: one VM inlining from its own exhaustive profile of
	// SteadyIters iterations.
	local := pristine.Clone()
	x := profiler.NewExhaustive()
	sess, err := cfg.start(cfg.newVM(local, x), size)
	if err != nil {
		return row, err
	}
	if _, err := sess.iters(b.SteadyIters); err != nil {
		return row, err
	}
	if _, err := adaptive.Recompile(local, vm.DefaultCostModel(), inline.NewNewLinear(), x.Graph, inline.DefaultOptions()); err != nil {
		return row, err
	}
	sums, localCycles, err := puller.RunRound(local, size, lp.Iters)
	if err != nil || !slices.Equal(sums, s.sums) {
		return row, fmt.Errorf("the locally recompiled program diverged (err %v)", err)
	}
	row.LocalCycles = localCycles
	row.LocalSpeedupPct = speedup(s.base, localCycles)
	target := planLoopGoodShare * row.LocalSpeedupPct

	if row.ExhaustiveRawPct, err = s.fresh(x.Graph, true); err != nil {
		return row, err
	}
	if row.ExhaustiveCondPct, err = s.fresh(x.Graph, false); err != nil {
		return row, err
	}

	passes := float64(lp.Passes)
	for pass := 0; pass < lp.Passes; pass++ {
		store := dcgstore.New()
		pushers := make([]*loopPusher, lp.Pushers)
		for k := range pushers {
			seed := lp.Seed + int64(pass*lp.Pushers+k)
			if pushers[k], err = newLoopPusher(cfg, pristine.Clone(), size, seed); err != nil {
				return row, err
			}
		}
		chains := []*planChain{{res: &row.Live}, {noHold: true, res: &row.NoHold}}
		for _, c := range chains {
			c.cycles, c.good = s.base, lp.Rounds+1
		}

		rounds := lp.Rounds
		if pass < lp.ReplayPasses {
			rounds = max(rounds, lp.ReplayRounds)
		}
		for round := 1; round <= rounds; round++ {
			for _, p := range pushers {
				if err := p.round(store, lp.Iters); err != nil {
					return row, err
				}
			}
			snapshot := store.Snapshot()
			for _, c := range chains {
				if err := c.pull(s, snapshot); err != nil {
					return row, err
				}
				if row.Eligible() && round < c.good && speedup(s.base, c.cycles) >= target {
					c.good = round
				}
			}
			if round != lp.Rounds {
				continue
			}
			for _, c := range chains {
				c.res.SpeedupPct += speedup(s.base, c.cycles) / passes
				c.swapsAtRounds = c.swaps
				if pass == 0 {
					c.res.Decisions, c.res.Epoch = len(c.prior.Decisions), uint64(c.swaps+c.killed)
					c.res.Swaps = c.swaps
				}
			}
			sampledRaw, err := s.fresh(snapshot, true)
			if err != nil {
				return row, err
			}
			sampledCond, err := s.fresh(snapshot, false)
			if err != nil {
				return row, err
			}
			row.SampledRawPct += sampledRaw / passes
			row.SampledCondPct += sampledCond / passes
			row.OverlapPct += profile.Overlap(snapshot, x.Graph) / passes
			if pass == 0 {
				row.Samples, row.Windows = snapshot.Total(), snapshot.Windows()
			}
		}
		for _, c := range chains {
			c.res.RoundsToGood += float64(c.good) / passes
			c.res.Killed += c.killed
			if pass == 0 {
				c.res.GoodRound = c.good
			}
			if pass < lp.ReplayPasses {
				c.res.ReplaySpeedupPct += speedup(s.base, c.cycles) / float64(lp.ReplayPasses)
				c.res.ReplaySwaps += c.swaps - c.swapsAtRounds
			}
		}
	}
	return row, nil
}

// loopPusher is one fleet VM on the collecting side: a program under
// CBS that pushes what it sampled since its last push.
type loopPusher struct {
	*session
	cbs  *profiler.CBS
	prev *profile.DCG
}

func newLoopPusher(cfg Config, prog *bytecode.Program, size, seed int64) (*loopPusher, error) {
	pc := profiler.DefaultCBS(profiler.FlavourRVM)
	pc.Seed = seed
	c := profiler.NewCBS(pc)
	s, err := cfg.start(cfg.newVM(prog, c), size)
	if err != nil {
		return nil, err
	}
	return &loopPusher{session: s, cbs: c}, nil
}

func (p *loopPusher) round(store *dcgstore.Store, iters int) error {
	if _, err := p.iters(iters); err != nil {
		return err
	}
	store.MergeDCG(p.cbs.Graph.DeltaSince(p.prev))
	p.prev = p.cbs.Graph.Clone()
	return nil
}

// FormatPlanLoop renders the study.
func FormatPlanLoop(res PlanLoopResult) string {
	lp, rows := res.Params, res.Rows
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet PGO loop: %d CBS pushers x %d iter() a round x %d rounds -> store -> plan chain -> pulling VM; %d passes, CBS seeds %d..%d\n",
		lp.Pushers, lp.Iters, lp.Rounds, lp.Passes, lp.Seed, lp.Seed+int64(lp.Passes*lp.Pushers)-1)
	fmt.Fprintf(&sb, "Speedup of one round over JIT-only, modelled cycles, %%; each rung of the ladder is one change from the one to its left\n")
	fmt.Fprintf(&sb, "%-10s %7s %8s %8s %8s %8s %8s %8s | %5s %4s %6s %7s %7s %7s\n",
		"Benchmark", "local", "exh/raw", "exh/cond", "cbs/raw", "cbs/cond", "live", "no-hold", "good@", "dec", "epochs", "samples", "windows", "overlap")
	rungs := func(r PlanLoopRow) []float64 {
		return []float64{r.LocalSpeedupPct, r.ExhaustiveRawPct, r.ExhaustiveCondPct, r.SampledRawPct, r.SampledCondPct,
			r.Live.SpeedupPct, r.NoHold.SpeedupPct, r.Live.ReplaySpeedupPct, r.NoHold.ReplaySpeedupPct}
	}
	mean := make([]float64, len(rungs(PlanLoopRow{})))
	var eligible, converged, decisions, swaps, killed int
	var epochs uint64
	var toGood, toGoodNoHold, overlap, windows float64
	for _, r := range rows {
		v := rungs(r)
		for i := range mean {
			mean[i] += v[i] / float64(len(rows))
		}
		good := "-"
		if r.Eligible() {
			eligible++
			toGood += r.Live.RoundsToGood
			toGoodNoHold += r.NoHold.RoundsToGood
			good = fmt.Sprintf("%.1f", r.Live.RoundsToGood)
			if r.Live.GoodRound <= lp.Rounds {
				converged++
			}
		}
		decisions += r.Live.Decisions
		epochs += r.Live.Epoch
		swaps += r.Live.Swaps
		killed += r.Live.Killed
		windows += r.Windows
		overlap += r.OverlapPct / float64(len(rows))
		fmt.Fprintf(&sb, "%-10s %7.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f | %5s %4d %6d %7.0f %7.0f %7.2f\n",
			r.Name, v[0], v[1], v[2], v[3], v[4], v[5], v[6], good, r.Live.Decisions, r.Live.Epoch, r.Samples, r.Windows, r.OverlapPct)
	}
	if len(rows) == 0 {
		return sb.String()
	}
	recovered := func(v float64) float64 {
		if mean[0] <= 0 {
			return 0
		}
		return v / mean[0] * 100
	}
	fmt.Fprintf(&sb, "%-10s %7.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n", "mean", mean[0], mean[1], mean[2], mean[3], mean[4], mean[5], mean[6])
	fmt.Fprintf(&sb, "%-10s %7.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f   %% of local\n", "recovered",
		recovered(mean[0]), recovered(mean[1]), recovered(mean[2]), recovered(mean[3]), recovered(mean[4]), recovered(mean[5]), recovered(mean[6]))
	if eligible > 0 {
		toGood /= float64(eligible)
		toGoodNoHold /= float64(eligible)
	}
	fmt.Fprintf(&sb, "rounds to a good plan (>= %.0f %% of local, %d programs with >= %.0f %% to recover): live %.2f, no-hold %.2f; pass 0: %d converged, %d decisions, %d epochs, %d swaps; %d killed in any pass\n",
		planLoopGoodShare*100, eligible, planLoopMinLocalPct, toGood, toGoodNoHold, converged, decisions, epochs, swaps, killed)

	fmt.Fprintf(&sb, "merged graph after round %d against the local exhaustive one: overlap %.3f %% (mean), %.0f windows in pass 0\n", lp.Rounds, overlap, windows)

	if lp.ReplayPasses > 0 && lp.ReplayRounds > lp.Rounds {
		fmt.Fprintf(&sb, "\nReplay: the first %d passes continued to %d rounds; speedup then (mean) and plans swapped in after round %d (summed)\n",
			lp.ReplayPasses, lp.ReplayRounds, lp.Rounds)
		fmt.Fprintf(&sb, "%-10s %8s %8s %8s %8s\n", "Benchmark", "live", "swaps", "no-hold", "swaps")
		var liveSwaps, noHoldSwaps int
		for _, r := range rows {
			fmt.Fprintf(&sb, "%-10s %8.2f %8d %8.2f %8d\n", r.Name,
				r.Live.ReplaySpeedupPct, r.Live.ReplaySwaps, r.NoHold.ReplaySpeedupPct, r.NoHold.ReplaySwaps)
			liveSwaps += r.Live.ReplaySwaps
			noHoldSwaps += r.NoHold.ReplaySwaps
		}
		fmt.Fprintf(&sb, "%-10s %8.3f %8d %8.3f %8d\n", "mean", mean[7], liveSwaps, mean[8], noHoldSwaps)
		fmt.Fprintf(&sb, "%-10s %8.3f %8s %8.3f %8s   %% of local\n", "recovered", recovered(mean[7]), "", recovered(mean[8]), "")
	}
	return sb.String()
}

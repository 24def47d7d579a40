package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"gocbs/internal/adaptive"
	"gocbs/internal/api"
	"gocbs/internal/bytecode"
	"gocbs/internal/dcgstore"
	"gocbs/internal/inline"
	"gocbs/internal/plan"
	"gocbs/internal/profiler"
	"gocbs/internal/puller"
	"gocbs/internal/stats"
	"gocbs/internal/vm"
)

const (
	// loopPushers VMs profile each program under CBS and push deltas;
	// loopIters is how many iter() calls a VM makes per round; a program
	// gets loopRounds rounds to reach a good plan.
	loopPushers = 2
	loopIters   = 2
	loopRounds  = 6
	// goodShare of the local-exhaustive speedup makes a pulled plan
	// "good"; programs whose local-exhaustive speedup is below
	// minLocalSpeedupPct have nothing to recover and are not timed.
	goodShare          = 0.95
	minLocalSpeedupPct = 1.0
	// loopPassSeconds is roughly what one pass over the suite costs on
	// this box; it sizes the number of passes from --seconds, so the
	// modelled figures are a function of the arguments and not of how
	// fast the run happened to go.
	loopPassSeconds = 3
	maxLoopPasses   = 5
)

// loopProgram is a suite program plus the baselines the loop is judged
// against, all in modelled cycles over loopIters iterations.
type loopProgram struct {
	*program
	sums        []int64 // the pristine program's per-iteration checksums
	baseCycles  uint64  // JIT-only
	localCycles uint64  // recompiled from this VM's own exhaustive profile
}

func (p *loopProgram) localSpeedupPct() float64 { return speedupPct(p.baseCycles, p.localCycles) }

func speedupPct(base, opt uint64) float64 {
	if opt == 0 {
		return 0
	}
	return (float64(base)/float64(opt) - 1) * 100
}

// baseline measures one program's two references: the JIT-only round,
// and the round after recompiling from a local exhaustive profile of
// SteadyIters iterations — the best a single VM can do without the fleet.
func baseline(e *env, p *program) (*loopProgram, error) {
	lp := &loopProgram{program: p}
	var err error
	if lp.sums, lp.baseCycles, err = puller.RunRound(p.code, p.size, loopIters); err != nil {
		return nil, fmt.Errorf("%s: pristine round: %w", p.name, err)
	}
	local := p.code.Clone()
	x := profiler.NewExhaustive()
	m := vm.New(local)
	m.SetProfiler(x)
	if _, err := m.Call(local.MethodByName("$Globals.setup"), vm.IntV(p.size)); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", p.name, err)
	}
	for i := 0; i < p.steady; i++ {
		if _, err := m.Call(local.MethodByName("$Globals.iter")); err != nil {
			return nil, fmt.Errorf("%s: iter: %w", p.name, err)
		}
	}
	op := e.tr.root("op.local_recompile")
	sp := op.child("adaptive.recompile")
	_, err = adaptive.Recompile(local, vm.DefaultCostModel(), inline.NewNewLinear(), x.Graph, inline.DefaultOptions())
	sp.end()
	op.end()
	if err != nil {
		return nil, fmt.Errorf("%s: recompile: %w", p.name, err)
	}
	sums, cycles, err := puller.RunRound(local, p.size, loopIters)
	if err != nil {
		return nil, fmt.Errorf("%s: recompiled round: %w", p.name, err)
	}
	e.check(slices.Equal(sums, lp.sums), "%s: the locally recompiled program changed its checksums", p.name)
	lp.localCycles = cycles
	return lp, nil
}

func setupLoop(e *env) ([]*loopProgram, error) {
	progs, err := loadSuite(e, e.programNames(suiteNames), false)
	if err != nil {
		return nil, err
	}
	out := make([]*loopProgram, len(progs))
	err = twoAtATime(len(progs), func(i int) error {
		var err error
		out[i], err = baseline(e, progs[i])
		return err
	})
	return out, err
}

// pusherVM is one fleet member on the collecting side.
type pusherVM struct {
	m      *vm.VM
	cbs    *profiler.CBS
	pusher *dcgstore.DeltaPusher
	cycles uint64 // base cycles executed in timed rounds
}

// loopOutcome is one program's trip through the loop in one pass.
type loopOutcome struct {
	goodRound   int     // first round with a good plan live; loopRounds+1 when never
	goodMs      float64 // ms from round 1 to that point (to the end when never), at nominal speed
	finalCycles uint64  // the live program's cycles after the last round
	decisions   int
	epoch       uint64
	polls       int
	swaps       int
	killed      int
	pusherWall  time.Duration // pusher rounds including the push, summed over rounds, at nominal speed
	pusherBase  uint64        // modelled base cycles the pushers executed
}

// runLoop drives the closed loop for one program against a live daemon:
// each round the pushers run and push concurrently, then the puller does
// what puller.Run does, from the same public calls so rounds stay
// sequenced — conditional fetch, apply on a clone, verify against the
// pristine checksums, swap.
func runLoop(e *env, tr *tracer, d *cbsd, p *loopProgram, seed int64, rounds int) (loopOutcome, error) {
	key := api.ProgramKey{Program: p.name, Version: p.version}
	pushers := make([]*pusherVM, loopPushers)
	for k := range pushers {
		code := p.code.Clone()
		c := profiler.NewCBS(cbsConfig(seed + int64(k)))
		m := vm.New(code)
		m.SetProfiler(c)
		m.SetTimer(timerPeriod)
		if _, err := m.Call(code.MethodByName("$Globals.setup"), vm.IntV(p.size)); err != nil {
			return loopOutcome{}, fmt.Errorf("%s: pusher setup: %w", p.name, err)
		}
		client := &dcgstore.Client{BaseURL: d.url, HTTPClient: d.http, Retries: -1, Key: key}
		pushers[k] = &pusherVM{m: m, cbs: c,
			pusher: dcgstore.NewDeltaPusherWithID(client, fmt.Sprintf("bench-%s-%d", p.name, k))}
	}
	plans := plan.NewClient(d.url)
	plans.SetHTTPClient(d.http)

	out := loopOutcome{goodRound: rounds + 1, finalCycles: p.baseCycles}
	target := goodShare * p.localSpeedupPct()
	eligible := p.localSpeedupPct() >= minLocalSpeedupPct
	start := time.Now()
	for round := 1; round <= rounds; round++ {
		errs := make([]error, len(pushers))
		var wg sync.WaitGroup
		for k, pv := range pushers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[k] = pv.round(tr)
			}()
		}
		t0 := time.Now()
		wg.Wait()
		out.pusherWall += time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return out, fmt.Errorf("%s round %d: %w", p.name, round, err)
			}
		}
		e.ok(len(pushers))

		op := tr.root("op.puller_round")
		out.polls++
		sp := op.child("api.plan_get")
		got, changed, err := plans.FetchVersion(p.name, p.version)
		sp.end()
		if !e.check(err == nil && got.Version == p.version, "%s round %d: plan fetch: %v", p.name, round, err) {
			op.end()
			continue
		}
		out.decisions, out.epoch = len(got.Decisions), got.Epoch
		if changed {
			sp = op.child("bytecode.clone")
			candidate := p.code.Clone()
			sp.end()
			cycles, ok := applyAndVerify(e, op, p, candidate, got)
			if ok {
				out.finalCycles = cycles
				out.swaps++
			} else {
				out.killed++
			}
		}
		op.end()
		if eligible && out.goodRound > rounds && speedupPct(p.baseCycles, out.finalCycles) >= target {
			out.goodRound = round
			out.goodMs = ms(time.Since(start))
		}
	}
	if out.goodRound > rounds {
		out.goodMs = ms(time.Since(start))
	}
	for _, pv := range pushers {
		out.pusherBase += pv.cycles
	}
	return out, nil
}

// round is one pusher VM's round: loopIters iterations under CBS, then a
// synchronous push of what it sampled since the last one.
func (pv *pusherVM) round(tr *tracer) error {
	op := tr.root("op.pusher_round")
	defer op.end()
	iter := pv.m.Prog.MethodByName("$Globals.iter")
	before := pv.m.BaseCycles()
	sp := op.child("vm.run")
	for i := 0; i < loopIters; i++ {
		if _, err := pv.m.Call(iter); err != nil {
			sp.end()
			return err
		}
	}
	sp.end()
	pv.cycles += pv.m.BaseCycles() - before
	sp = op.child("loop.push")
	err := pv.pusher.Push(pv.cbs.Graph)
	sp.end()
	return err
}

// applyAndVerify applies a plan to a clone and replays one round on it;
// the candidate goes live only if it reproduces the pristine checksums.
func applyAndVerify(e *env, op liveSpan, p *loopProgram, candidate *bytecode.Program, got *plan.Plan) (uint64, bool) {
	sp := op.child("plan.apply")
	res, err := plan.Apply(candidate, got, inline.DefaultOptions())
	sp.end()
	if !e.check(err == nil && res.SkippedStale == 0, "%s: plan epoch %d does not apply cleanly (err %v, %d stale)",
		p.name, got.Epoch, err, res.SkippedStale) {
		return 0, false
	}
	sp = op.child("puller.verify_round")
	sums, cycles, err := puller.RunRound(candidate, p.size, loopIters)
	sp.end()
	ok := e.check(err == nil && slices.Equal(sums, p.sums),
		"%s: plan epoch %d diverges from the pristine checksums (err %v)", p.name, got.Epoch, err)
	return cycles, ok
}

// loopPass is one pass over the suite against a fresh daemon.
type loopPass struct {
	outcomes []loopOutcome
}

func runLoopPass(e *env, tr *tracer, progs []*loopProgram, seed int64, rounds int) (*loopPass, error) {
	// No periodic tick inside a pass: the daemon's tick also refreshes
	// plans, and a refresh landing between the two pushers' pushes of one
	// round compiles from half a round — through the plan's hysteresis
	// that can change a later decision, and the modelled figures must
	// repeat exactly. Plans still persist when they change, and the
	// shutdown writes the final checkpoint.
	d, err := startDaemon(e, time.Hour)
	if err != nil {
		return nil, err
	}
	pass := &loopPass{}
	from := time.Now()
	for _, p := range progs {
		out, err := runLoop(e, tr, d, p, seed, rounds)
		if err != nil {
			d.stop()
			return nil, err
		}
		pass.outcomes = append(pass.outcomes, out)
	}
	// One slowdown for the whole pass scales its times to the nominal
	// machine speed.
	slow := e.meter.slowdown(from, time.Now())
	for i := range pass.outcomes {
		out := &pass.outcomes[i]
		out.goodMs /= slow
		out.pusherWall = time.Duration(float64(out.pusherWall) / slow)
	}
	if err := d.stop(); err != nil {
		e.fail("daemon shutdown: %v", err)
	}
	return pass, nil
}

// loopSummary folds one pass into the loop's figures.
type loopSummary struct {
	msToGood, roundsToGood    float64 // over the eligible programs: sum, mean
	planSpeedup, localSpeedup float64 // mean over all programs, percent
	converged                 int
	mcycPerS                  float64 // pusher-side modelled Mcycles per wall second, pushes included
}

func summarise(progs []*loopProgram, pass *loopPass, rounds int) loopSummary {
	var s loopSummary
	var eligible float64
	var wall time.Duration
	var base uint64
	for i, p := range progs {
		out := pass.outcomes[i]
		s.planSpeedup += speedupPct(p.baseCycles, out.finalCycles) / float64(len(progs))
		s.localSpeedup += p.localSpeedupPct() / float64(len(progs))
		wall += out.pusherWall
		base += out.pusherBase
		if p.localSpeedupPct() < minLocalSpeedupPct {
			continue
		}
		eligible++
		s.msToGood += out.goodMs
		s.roundsToGood += float64(out.goodRound)
		if out.goodRound <= rounds {
			s.converged++
		}
	}
	if eligible > 0 {
		s.roundsToGood /= eligible
	}
	s.mcycPerS = float64(base) / 1e6 / wall.Seconds()
	return s
}

func runPlanLoop(e *env) error {
	progs, err := timeSetup(e, func() ([]*loopProgram, error) { return setupLoop(e) }, nil)
	if err != nil {
		return err
	}
	passes, rounds := int(e.cfg.seconds/loopPassSeconds), loopRounds
	if passes > maxLoopPasses {
		passes = maxLoopPasses
	}
	if e.cfg.smoke {
		passes, rounds = 1, 1
	}
	if passes < 1 {
		passes = 1
	}
	if e.tr != nil && passes < 2 {
		passes = 2
	}
	e.slices = passes

	// Pass s profiles under CBS seeds seed+2s and seed+2s+1, so the
	// modelled figures average over several sampling histories; odd
	// passes are the traced ones in a traced run.
	var all, plain, traced []loopSummary
	var first *loopPass
	for s := 0; s < passes; s++ {
		tr := (*tracer)(nil)
		if e.tr != nil && s%2 == 1 {
			tr = e.tr
		}
		pass, err := runLoopPass(e, tr, progs, e.cfg.seed+int64(s*loopPushers), rounds)
		if err != nil {
			return err
		}
		if first == nil {
			first = pass
		}
		sum := summarise(progs, pass, rounds)
		all = append(all, sum)
		if tr == nil {
			plain = append(plain, sum)
		} else {
			traced = append(traced, sum)
		}
	}
	field := func(ss []loopSummary, f func(loopSummary) float64) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = f(s)
		}
		return out
	}
	msToGood := stats.Mean(field(plain, func(s loopSummary) float64 { return s.msToGood }))
	planSpeedup := stats.Mean(field(all, func(s loopSummary) float64 { return s.planSpeedup }))
	localSpeedup := all[0].localSpeedup
	recovered := 0.0
	if localSpeedup > 0 {
		recovered = planSpeedup / localSpeedup * 100
	}
	e.set("throughput", stats.Median(field(plain, func(s loopSummary) float64 { return s.mcycPerS })))
	e.set("latency_ms", msToGood)
	e.set("quality_pct", recovered)
	if e.tr == nil {
		return nil
	}

	e.set("loop_ms_to_good_plan", msToGood)
	e.set("loop_rounds_to_good_plan", stats.Mean(field(all, func(s loopSummary) float64 { return s.roundsToGood })))
	e.set("plan_speedup_model_pct", planSpeedup)
	e.set("plan_recovered_pct", recovered)
	e.set("loop.local_speedup_model_pct", localSpeedup)
	e.set("loop.programs_converged", float64(all[0].converged))
	var decisions, epochs, polls, swaps, killed float64
	for _, out := range first.outcomes {
		decisions += float64(out.decisions)
		epochs += float64(out.epoch)
		polls += float64(out.polls)
		swaps += float64(out.swaps)
		killed += float64(out.killed)
	}
	e.set("plan.decisions", decisions)
	e.set("plan.epochs", epochs)
	e.set("puller.polls", polls)
	e.set("puller.swaps", swaps)
	e.set("puller.killed", killed)
	e.set("plan.apply_ms_p50", nsToMs(stats.Median(e.tr.durations("plan.apply"))))
	e.set("puller.verify_round_ms", nsToMs(stats.Median(e.tr.durations("puller.verify_round"))))
	e.set("puller.round_ms", nsToMs(stats.Median(e.tr.durations("op.puller_round"))))
	e.set("loop.pusher_round_ms", nsToMs(stats.Median(e.tr.durations("op.pusher_round"))))
	e.set("loop.push_ms", nsToMs(stats.Median(e.tr.durations("loop.push"))))
	e.set("adaptive.recompile_ms", nsToMs(stats.Median(e.tr.durations("adaptive.recompile"))))
	// Pusher-side speed, not time to a good plan: passes differ in their
	// seeds, and with them in how soon plans turn good.
	mcyc := func(ss []loopSummary) float64 {
		return stats.Median(field(ss, func(s loopSummary) float64 { return s.mcycPerS }))
	}
	e.set("bench.trace_overhead_pct", (mcyc(plain)/mcyc(traced)-1)*100)
	reportSetupSpans(e)
	e.set("bench.trace_glue_pct", e.tr.glueShare()*100)
	return nil
}

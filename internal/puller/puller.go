// Package puller is the plan-pulling execution mode of cbsvm as a
// library — the exploit half of the fleet loop, extracted so the fleet
// simulator (internal/fleetsim) can run many pulling VMs in-process
// with an injected, fault-wrapped plan client.
package puller

import (
	"errors"
	"fmt"
	"slices"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/plan"
	"gocbs/internal/vm"
)

// Options configures the plan-pulling execution mode (-pull-plan):
// the exploit half of the fleet loop, where this VM runs its benchmark
// repeatedly and periodically asks a cbsd daemon for the inlining plan
// compiled from the whole fleet's aggregated profile.
type Options struct {
	Program string // benchmark name, also the plan key
	Size    int64  // setup argument

	Rounds int // total top-level rounds to run
	Every  int // poll the daemon every N rounds (>=1)
	Iters  int // $Globals.iter calls per round

	Logf func(format string, args ...any)

	// Client, required, pulls the plans: plan.NewClient(url) for a daemon
	// at url, or one whose transport the fleet simulator injects faults
	// into.
	Client *plan.Client
	// Observe, when non-nil, is called once per successful poll with
	// the plan the daemon served (new or cached) and once more, with
	// swapped=true, when a plan passes verification and is hot-swapped
	// in. The fleet simulator's invariant checkers hang off this hook.
	Observe func(p *plan.Plan, swapped bool)
}

// Stats summarizes a pull-mode run.
type Stats struct {
	Rounds int
	Polls  int
	Swaps  int
	// Epoch is the plan epoch the VM ended on (0 = never applied one).
	Epoch uint64
	// VersionRejects counts plans refused outright because their
	// program version did not match this VM's running build — the
	// loud replacement for silently part-applying another build's
	// decisions.
	VersionRejects int
	// StaleDecisions is the cumulative count of plan decisions that
	// found no matching call site when a plan was applied: a plan for
	// this build that names sites the build does not have.
	StaleDecisions int
	// Killed reports the divergence kill switch fired: a transformed
	// program produced different output, the VM reverted to an
	// unoptimized clone, and pulling was disabled for the rest of the
	// run.
	Killed bool
	// BaseCycles / LastCycles are the steady-state cycles of the first
	// (always unoptimized) and last round.
	BaseCycles uint64
	LastCycles uint64
}

// RunRound executes one top-level round — setup(size) then iters
// iterations on a fresh VM — and returns the per-iteration checksums
// and the cycles spent iterating (setup excluded, steady state only).
func RunRound(prog *bytecode.Program, size int64, iters int) ([]int64, uint64, error) {
	m := vm.New(prog)
	iter, err := bench.Setup(m, size)
	if err != nil {
		return nil, 0, err
	}
	start := m.Cycles
	sums := make([]int64, iters)
	for i := range sums {
		v, err := m.Call(iter)
		if err != nil {
			return nil, 0, err
		}
		sums[i] = v.I
	}
	return sums, m.Cycles - start, nil
}

// Run is the pulling VM's main loop. pristine must be the benchmark as
// inline.JITOnly prepares it.
//
// The loop runs Rounds top-level rounds of the benchmark. Every Every
// rounds it polls the daemon with a conditional GET; when a new plan
// epoch arrives, the plan is applied to a fresh clone of the pristine
// program (under inline.DefaultOptions, the bounds the plan compiler
// extracts under) and the candidate first replays one round, which must
// reproduce the unoptimized reference checksums exactly.
// Only then is it hot-swapped in as the active program for subsequent
// rounds. Heap state never crosses a swap: objects hold vtable
// pointers into the program that allocated them, so swaps happen only
// at round boundaries where no benchmark state is live.
//
// The kill switch: if a candidate (or the active program, re-checked
// every round) ever produces checksums that differ from the pristine
// reference, the VM reverts to an unoptimized clone and stops pulling
// for the rest of the run. A bad centrally-compiled plan degrades this
// VM to baseline speed; it cannot corrupt its output.
func Run(pristine *bytecode.Program, o Options) (Stats, error) {
	if o.Rounds < 1 {
		o.Rounds = 1
	}
	if o.Every < 1 {
		o.Every = 1
	}
	if o.Iters < 1 {
		o.Iters = 1
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// Reference round on the unoptimized program: the ground truth
	// every transformed round must reproduce, and the baseline cycle
	// count speedups are judged against.
	ref, baseCycles, err := RunRound(pristine.Clone(), o.Size, o.Iters)
	if err != nil {
		return Stats{}, fmt.Errorf("reference round: %w", err)
	}
	st := Stats{BaseCycles: baseCycles, LastCycles: baseCycles}

	observe := o.Observe
	if observe == nil {
		observe = func(*plan.Plan, bool) {}
	}
	// The version this VM demands of every plan: the content-addressed
	// identity of its own prepared program. The daemon scopes its plan
	// to this exact build, and anything else that slips through —
	// a cached body, a misbehaving relay — is refused below.
	version := pristine.Version()
	active := pristine.Clone()
	for round := 0; round < o.Rounds; round++ {
		if !st.Killed && round%o.Every == 0 {
			st.Polls++
			p, changed, err := o.Client.FetchVersion(o.Program, version)
			if err == nil {
				observe(p, false)
			}
			switch {
			case errors.Is(err, plan.ErrVersionMismatch):
				// The client refused a plan at the wire because it was
				// compiled for a different build — a misrouting relay or a
				// stale cache between this VM and the daemon. Counted
				// separately from transient failures so a fleet serving the
				// wrong build is visible, not just slow.
				st.VersionRejects++
				logf("pull: REFUSED plan: %v (this VM runs %s@%s)", err, o.Program, version)
			case err != nil:
				// Transient daemon trouble must not stop the workload.
				logf("pull: poll %d failed (running on): %v", st.Polls, err)
			case changed:
				if err := p.CheckVersion(version); err != nil {
					// The client refuses these before they reach its cache;
					// a plan that arrives here by any other road is refused
					// whole all the same — applying the subset of another
					// build's decisions that happens to line up is the
					// silent misapplication the version exists to end.
					st.VersionRejects++
					logf("pull: REFUSED plan: %v (this VM runs %s@%s)", err, o.Program, version)
					break
				}
				candidate := pristine.Clone()
				rep, err := plan.Apply(candidate, p, inline.DefaultOptions())
				if err != nil {
					logf("pull: plan epoch %d does not apply (keeping current code): %v", p.Epoch, err)
					break
				}
				if rep.SkippedStale > 0 {
					// One line per plan, not per decision: enough to make
					// a mismatched fleet visible without log spam.
					st.StaleDecisions += rep.SkippedStale
					logf("pull: plan epoch %d: %d of %d decisions skipped as stale for this build",
						p.Epoch, rep.SkippedStale, len(p.Decisions))
				}
				if sums, _, err := RunRound(candidate, o.Size, o.Iters); err != nil || !slices.Equal(sums, ref) {
					st.Killed = true
					active = pristine.Clone()
					logf("pull: KILL SWITCH — plan epoch %d diverges from unoptimized output (err=%v); reverted to baseline, pulling disabled", p.Epoch, err)
					break
				}
				active = candidate
				st.Swaps++
				st.Epoch = p.Epoch
				observe(p, true)
				logf("pull: swapped in plan epoch %d (%d decisions, %d inlines)", p.Epoch, len(p.Decisions), rep.InlinesApplied)
			}
		}

		sums, cycles, err := RunRound(active, o.Size, o.Iters)
		if err != nil {
			return st, fmt.Errorf("round %d: %w", round, err)
		}
		if !slices.Equal(sums, ref) {
			// Belt and braces: divergence surfacing only in the live
			// round, which the verify round did not show, trips the same
			// kill switch.
			st.Killed = true
			active = pristine.Clone()
			logf("pull: KILL SWITCH — live round %d diverged; reverted to baseline, pulling disabled", round)
		}
		st.LastCycles = cycles
		st.Rounds++
	}
	return st, nil
}

package experiment

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"gocbs/internal/dcgstore"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// smallLoop is the loop cut down for the structural tests: one pass,
// three pushers, a short replay.
func smallLoop() PlanLoopParams {
	return PlanLoopParams{Pushers: 3, Iters: 2, Rounds: 3, Passes: 1, ReplayPasses: 1, ReplayRounds: 5, Seed: 42}
}

func TestPlanLoopRuns(t *testing.T) {
	cfg := testCfg(t, "compress", "mtrt")
	res, err := PlanLoop(cfg, "small", smallLoop())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Live.Epoch == 0 || r.Live.Decisions == 0 {
			t.Errorf("%s: fleet plan is empty: %+v", r.Name, r.Live)
		}
		if r.Live.Swaps != int(r.Live.Epoch) || r.Live.Killed != 0 {
			t.Errorf("%s: %d swaps and %d kills over %d epochs, want a verified swap per epoch", r.Name, r.Live.Swaps, r.Live.Killed, r.Live.Epoch)
		}
		if r.BaseCycles == 0 || r.LocalCycles == 0 || r.Samples == 0 {
			t.Errorf("%s: missing baselines: %+v", r.Name, r)
		}
		// The loop's whole point: the fleet plan must beat the JIT-only
		// baseline and land in the local-exhaustive inliner's league, and
		// an exhaustive graph must lose nothing on its way through
		// plan.Compile.
		if r.Live.SpeedupPct <= 0 || r.SampledCondPct <= 0 {
			t.Errorf("%s: plan speedup %.2f%% live, %.2f%% fresh, want positive", r.Name, r.Live.SpeedupPct, r.SampledCondPct)
		}
		if r.Live.SpeedupPct < r.LocalSpeedupPct-10 {
			t.Errorf("%s: plan-guided %.2f%% is more than 10 points behind local-exhaustive %.2f%%", r.Name, r.Live.SpeedupPct, r.LocalSpeedupPct)
		}
		if r.ExhaustiveRawPct != r.LocalSpeedupPct {
			t.Errorf("%s: the exhaustive graph buys %.3f%% through plan.Compile and %.3f%% through adaptive.Recompile", r.Name, r.ExhaustiveRawPct, r.LocalSpeedupPct)
		}
		if r.Live.GoodRound < 1 || r.Live.GoodRound > 4 || r.Live.RoundsToGood != float64(r.Live.GoodRound) {
			t.Errorf("%s: good round %d (mean %.2f) with one pass of 3 rounds", r.Name, r.Live.GoodRound, r.Live.RoundsToGood)
		}
	}
	out := FormatPlanLoop(res)
	for _, want := range []string{"compress", "recovered", "3 CBS pushers", "Replay: the first 1 passes continued to 5 rounds"} {
		if !strings.Contains(out, want) {
			t.Errorf("format lacks %q:\n%s", want, out)
		}
	}
}

func TestPlanLoopDeterministicAcrossParallelism(t *testing.T) {
	skipSerialUnderRace(t)
	serial := testCfg(t, "compress", "db")
	serial.Parallel = 1
	a, err := PlanLoop(serial, "small", smallLoop())
	if err != nil {
		t.Fatal(err)
	}
	par := testCfg(t, "compress", "db")
	par.Parallel = 4
	b, err := PlanLoop(par, "small", smallLoop())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("parallel run diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// windowWatch records the clock whenever the CBS installed before it has
// opened a window.
type windowWatch struct {
	cbs  *profiler.CBS
	seen float64
	at   []uint64
}

func (*windowWatch) Name() string { return "window-watch" }

func (w *windowWatch) OnYieldpoint(m *vm.VM, _ vm.YieldKind) {
	if w.cbs.Graph.Windows() != w.seen {
		w.seen = w.cbs.Graph.Windows()
		w.at = append(w.at, m.Cycles)
	}
}

// TestPushersDoNotShareWindows: two pushers of one build, at the
// consecutive seeds a fleet gives them, open their windows at different
// points of the program. The modelled program is deterministic, so with
// ticks at exactly k·TimerPeriod both opened every window at the same
// cycle — the first yieldpoint after the tick — and K pushers sampled one
// aliasing pattern K times.
func TestPushersDoNotShareWindows(t *testing.T) {
	cfg := testCfg(t, "jess")
	b := cfg.Benchmarks[0]
	pristine, err := cfg.prepare(b)
	if err != nil {
		t.Fatal(err)
	}
	var stamps [2][]uint64
	for k := range stamps {
		p, err := newLoopPusher(cfg, pristine.Clone(), b.SizeFor("small"), int64(1+k))
		if err != nil {
			t.Fatal(err)
		}
		w := &windowWatch{cbs: p.cbs, seen: p.cbs.Graph.Windows()}
		p.m.SetProfiler(p.cbs, w)
		if err := p.round(dcgstore.New(), 24); err != nil {
			t.Fatal(err)
		}
		if len(w.at) < 4 {
			t.Fatalf("seed %d: %d windows in 24 iterations, want a handful", 1+k, len(w.at))
		}
		stamps[k] = w.at
	}
	for _, c := range stamps[0] {
		if slices.Contains(stamps[1], c) {
			t.Errorf("both pushers opened a window at cycle %d (seed 1: %v, seed 2: %v)", c, stamps[0], stamps[1])
			break
		}
	}
}

package experiment

import (
	"reflect"
	"strings"
	"testing"
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

package experiment

import (
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/planloop_ladder.txt from this tree")

const ladderGolden = "testdata/planloop_ladder.txt"

// TestPlanLoopLadderPinned holds `cbsbench -study planloop` on the whole
// suite to the readable golden: the loss ladder of the repo benchmark's
// plan_loop workload at its recorded seed. The "recovered" cell under
// "live" is that workload's quality_pct to the digit (68.213 when the
// file was written, at the commit before retention asked the cost
// model; 87.177 since ticks are placed and a share has a count behind
// it), and "rounds to a good plan", converged, decisions, epochs,
// swaps and killed are its traced rows: the in-process loop and
// benchmark/loop.go agree. A change to the plan compiler's retention
// moves the live column and the replay's; one that moves a column to the
// left of it has changed the policy, the conditioning or the sampler.
func TestPlanLoopLadderPinned(t *testing.T) {
	if raceLite {
		t.Skip("pinned text is schedule-independent and verified by the non-race run; skipped under -race for time")
	}
	cfg := DefaultConfig()
	cfg.Parallel = 4
	res, err := PlanLoop(cfg, "small", DefaultPlanLoopParams())
	if err != nil {
		t.Fatal(err)
	}
	text := FormatPlanLoop(res)
	if *updateGolden {
		if err := os.WriteFile(ladderGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ladderGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden, and say in the commit which rung moved and why)", err)
	}
	if text != string(want) {
		t.Errorf("the plan loop's ladder moved (regenerate with -update-golden only with the moved rung explained):\n got:\n%s\nwant:\n%s", text, want)
	}
}

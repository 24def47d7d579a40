package experiment

import (
	"fmt"
	"testing"
)

// Golden regression pins for the QuickConfig headline numbers, first
// captured from the serial harness before the runner port and redrawn
// once since, when a CBS began to place its ticks within their periods
// from its seed (one seed, a dozen ticks: every cell is one draw). They
// hold at any Config.Parallel setting; if a change to the runner, the
// program cache, or Program.Clone shifts any of these displayed values,
// the port has silently altered the experiment results.

// TestGoldenTable3QuickConfig pins the Table 3 overhead/accuracy
// breakdown for compress and mtrt under QuickConfig (seed 42).
func TestGoldenTable3QuickConfig(t *testing.T) {
	if raceLite {
		t.Skip("pinned values are schedule-independent and verified by the non-race run; skipped under -race for time")
	}
	cfg := testCfg(t, "compress", "mtrt")
	cfg.Parallel = 4
	rows, err := Table3(cfg, DefaultTable3Params())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][8]string{
		// RVM base ovh/acc, RVM CBS ovh/acc, J9 base ovh/acc, J9 CBS ovh/acc
		"compress-small": {"0.00", "61.0", "0.06", "85.7", "0.00", "61.0", "0.19", "86.0"},
		"mtrt-small":     {"0.00", "61.9", "0.06", "91.8", "0.00", "45.3", "0.18", "96.6"},
		"compress-large": {"0.00", "58.7", "0.06", "74.4", "0.00", "70.7", "0.18", "88.0"},
		"mtrt-large":     {"0.00", "77.7", "0.06", "97.6", "0.00", "79.4", "0.18", "96.7"},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		key := r.Name + "-" + r.Input
		w, ok := want[key]
		if !ok {
			t.Errorf("unexpected row %s", key)
			continue
		}
		got := [8]string{
			fmt.Sprintf("%.2f", r.RVMBaseOverhead), fmt.Sprintf("%.1f", r.RVMBaseAccuracy),
			fmt.Sprintf("%.2f", r.RVMCBSOverhead), fmt.Sprintf("%.1f", r.RVMCBSAccuracy),
			fmt.Sprintf("%.2f", r.J9BaseOverhead), fmt.Sprintf("%.1f", r.J9BaseAccuracy),
			fmt.Sprintf("%.2f", r.J9CBSOverhead), fmt.Sprintf("%.1f", r.J9CBSAccuracy),
		}
		if got != w {
			t.Errorf("%s = %v, want %v", key, got, w)
		}
	}
}

// TestGoldenFigure5QuickConfig pins the mtrt Figure 5 (Jikes RVM)
// speedups under QuickConfig (seed 42).
func TestGoldenFigure5QuickConfig(t *testing.T) {
	if raceLite {
		t.Skip("pinned values are schedule-independent and verified by the non-race run; skipped under -race for time")
	}
	cfg := testCfg(t, "mtrt")
	cfg.Parallel = 4
	rows, err := Figure5(cfg, Figure5Jikes, "small")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	if got := fmt.Sprintf("%.2f", r.TimerSpeedupPct); got != "4.52" {
		t.Errorf("timer speedup = %s%%, want 4.52%%", got)
	}
	if got := fmt.Sprintf("%.2f", r.CBSSpeedupPct); got != "4.52" {
		t.Errorf("cbs speedup = %s%%, want 4.52%%", got)
	}
	compileDelta := (float64(r.CBSCompileCycles)/float64(r.BaselineCompileCycles) - 1) * 100
	if got := fmt.Sprintf("%.1f", compileDelta); got != "0.7" {
		t.Errorf("compile-cycle delta = %s%%, want 0.7%%", got)
	}
}

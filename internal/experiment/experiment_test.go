package experiment

import (
	"math"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/profiler"
)

// testCfg is a minimal configuration for fast experiment tests.
func testCfg(t *testing.T, names ...string) Config {
	t.Helper()
	cfg := QuickConfig()
	sub, err := bench.Subset(names)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Benchmarks = sub
	return cfg
}

func TestTable1ShapesAndFormat(t *testing.T) {
	skipSerialUnderRace(t)
	cfg := testCfg(t, "jess", "soot")
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 benchmarks x 2 inputs
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byKey := map[string]Table1Row{}
	for _, r := range rows {
		byKey[r.Name+"-"+r.Input] = r
		if r.MCycles <= 0 || r.Methods <= 0 || r.SizeK <= 0 {
			t.Errorf("row %+v has non-positive fields", r)
		}
	}
	if byKey["jess-large"].MCycles <= byKey["jess-small"].MCycles {
		t.Error("large input should cost more cycles than small")
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "jess") || !strings.Contains(out, "Meth exe") {
		t.Errorf("format missing fields:\n%s", out)
	}
}

func TestMeasureCBSAgainstPerfect(t *testing.T) {
	cfg := testCfg(t, "jess")
	b := cfg.Benchmarks[0]
	perfect, err := PerfectDCG(cfg, b, b.Small)
	if err != nil {
		t.Fatal(err)
	}
	if perfect.NumEdges() < 10 {
		t.Fatalf("perfect DCG too small: %d edges", perfect.NumEdges())
	}
	timer, err := MeasureCBS(cfg, b, b.Small, profiler.TimerOnly(profiler.FlavourRVM), perfect)
	if err != nil {
		t.Fatal(err)
	}
	cbs, err := MeasureCBS(cfg, b, b.Small, profiler.Config{Stride: 3, SamplesPerTick: 16}, perfect)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: CBS is substantially more accurate at
	// negligible overhead.
	if cbs.Accuracy <= timer.Accuracy {
		t.Errorf("CBS accuracy %.1f should beat timer-only %.1f", cbs.Accuracy, timer.Accuracy)
	}
	if cbs.OverheadPct > 1.0 {
		t.Errorf("CBS(3,16) overhead %.2f%% should stay below 1%%", cbs.OverheadPct)
	}
	if cbs.Samples <= timer.Samples {
		t.Error("CBS should take more samples than timer-only")
	}
}

func TestTable2GridMonotoneInSamples(t *testing.T) {
	cfg := testCfg(t, "jess")
	strides := []int{3}
	samples := []int{1, 64}
	cells, err := Table2(cfg, profiler.FlavourRVM, "small", strides, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	var low, high Table2Cell
	for _, c := range cells {
		if c.Samples == 1 {
			low = c
		} else {
			high = c
		}
	}
	if high.Accuracy <= low.Accuracy {
		t.Errorf("accuracy should grow with samples: %v vs %v", low, high)
	}
	if high.OverheadPct <= low.OverheadPct {
		t.Errorf("overhead should grow with samples: %v vs %v", low, high)
	}
	out := FormatTable2("test", cells, strides, samples)
	if !strings.Contains(out, "samp\\str") {
		t.Errorf("format wrong:\n%s", out)
	}
}

// skipSerialUnderRace skips tests that run the experiment pipeline on
// the runner's serial fast path: they add no concurrency coverage, and
// under the race detector's interpreter slowdown they would push the
// package toward go test's default timeout. Their logic stays covered
// by every non-race run.
func skipSerialUnderRace(t *testing.T) {
	t.Helper()
	if raceLite {
		t.Skip("serial-path experiment test; covered by the non-race run")
	}
}

func TestTable3RowsComplete(t *testing.T) {
	skipSerialUnderRace(t)
	cfg := testCfg(t, "compress")
	rows, err := Table3(cfg, DefaultTable3Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (small+large)", len(rows))
	}
	for _, r := range rows {
		if r.RVMCBSAccuracy <= 0 || r.J9CBSAccuracy <= 0 {
			t.Errorf("row %+v missing accuracy data", r)
		}
	}
	out := FormatTable3(rows, DefaultTable3Params())
	if !strings.Contains(out, "Average small") || !strings.Contains(out, "Average large") {
		t.Errorf("format missing averages:\n%s", out)
	}
}

func TestFigure5Runs(t *testing.T) {
	cfg := testCfg(t, "mtrt")
	rows, err := Figure5(cfg, Figure5Jikes, "small")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.BaselineIterCycles == 0 || r.CBSIterCycles == 0 {
		t.Error("steady-state cycles missing")
	}
	// mtrt is the inlining-friendliest benchmark: profile-directed
	// inlining must help here.
	if r.CBSSpeedupPct <= 0 {
		t.Errorf("cbs speedup on mtrt = %.2f%%, want positive", r.CBSSpeedupPct)
	}
	if r.BaselineCompileCycles == 0 {
		t.Error("compile cycles not recorded")
	}
	out := FormatFigure5(Figure5Jikes, rows)
	if !strings.Contains(out, "mtrt") || !strings.Contains(out, "average") {
		t.Errorf("format wrong:\n%s", out)
	}
}

func TestConvergenceSeriesMonotoneOverall(t *testing.T) {
	cfg := testCfg(t, "jess")
	pts, err := Convergence(cfg, cfg.Benchmarks[0], "small")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("too few checkpoints: %d", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.CBS <= first.CBS {
		t.Errorf("CBS accuracy should improve over time: %.1f -> %.1f", first.CBS, last.CBS)
	}
	// By the end, CBS should dominate timer-only.
	if last.CBS <= last.Timer {
		t.Errorf("final CBS %.1f should beat timer %.1f", last.CBS, last.Timer)
	}
}

func TestComparatorsOrdering(t *testing.T) {
	cfg := testCfg(t, "jess")
	rows, err := Comparators(cfg, "small")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ComparatorRow{}
	for _, r := range rows {
		byName[r.Technique] = r
	}
	// Exhaustive instrumentation: perfectly accurate, expensive (the
	// Vortex result).
	ex := byName["exhaustive-instrumented"]
	if ex.Accuracy < 99.9 {
		t.Errorf("exhaustive accuracy = %.1f, want 100", ex.Accuracy)
	}
	if ex.OverheadPct < 5 {
		t.Errorf("exhaustive overhead = %.1f%%, expected substantial", ex.OverheadPct)
	}
	// CBS: nearly free and more accurate than timer-only and whaley.
	cbs := byName["cbs(3,16)"]
	if cbs.OverheadPct > 1 {
		t.Errorf("cbs overhead = %.2f%%", cbs.OverheadPct)
	}
	if cbs.Accuracy <= byName["timer-only"].Accuracy {
		t.Error("cbs should beat timer-only")
	}
	if cbs.Accuracy <= byName["whaley"].Accuracy {
		t.Error("cbs should beat the Whaley sampler")
	}
}

func TestSkewAblationRuns(t *testing.T) {
	cfg := testCfg(t, "mpegaudio")
	rows, err := SkewAblation(cfg, "small", 31, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 skip policies", len(rows))
	}
	for _, r := range rows {
		if r.Accuracy <= 0 || r.Accuracy > 100 {
			t.Errorf("%s accuracy %v out of range", r.Policy, r.Accuracy)
		}
	}
}

func TestContextStudyRuns(t *testing.T) {
	cfg := testCfg(t, "kawa")
	rows, err := ContextStudy(cfg, "small")
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.CCTNodes == 0 || r.PerfectCCTNodes == 0 {
		t.Fatal("CCT not built")
	}
	if r.CCTNodes > r.PerfectCCTNodes {
		t.Errorf("sampled CCT (%d nodes) cannot exceed exhaustive CCT (%d)", r.CCTNodes, r.PerfectCCTNodes)
	}
	if r.CCTAccuracy <= 0 || r.CCTAccuracy > 100 {
		t.Errorf("CCT accuracy %v out of range", r.CCTAccuracy)
	}
	// Context-sensitive accuracy is necessarily no better than flat
	// accuracy on the same samples (finer-grained matching).
	if r.CCTAccuracy > r.FlatAccuracy+1e-9 {
		t.Errorf("CCT accuracy %.1f should not exceed flat %.1f", r.CCTAccuracy, r.FlatAccuracy)
	}
}

func TestInlinerAblationRuns(t *testing.T) {
	skipSerialUnderRace(t)
	cfg := testCfg(t, "mtrt")
	rows, err := InlinerAblation(cfg, "small")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := FormatInliners(rows)
	if !strings.Contains(out, "mtrt") {
		t.Errorf("format wrong:\n%s", out)
	}
}

func TestOnlineStudyWarmsUp(t *testing.T) {
	cfg := testCfg(t, "jbb")
	rows, err := Online(cfg, "small")
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.MethodsRecompiled == 0 {
		t.Error("online controller never recompiled")
	}
	if r.LastIterCycles >= r.FirstIterCycles {
		t.Errorf("jbb should warm up online: first %d, last %d", r.FirstIterCycles, r.LastIterCycles)
	}
	out := FormatOnline(rows)
	if !strings.Contains(out, "jbb") || !strings.Contains(out, "warmup") {
		t.Errorf("format wrong:\n%s", out)
	}
}

func TestCleanupStudyNeverHurts(t *testing.T) {
	cfg := testCfg(t, "mtrt")
	rows, err := CleanupAblation(cfg, "small")
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.CleanedIterCycles > r.InlinedIterCycles {
		t.Errorf("cleanup made mtrt slower: %d vs %d", r.CleanedIterCycles, r.InlinedIterCycles)
	}
	if r.CleanedCodeSize >= r.InlinedCodeSize {
		t.Errorf("cleanup should shrink code: %d vs %d", r.CleanedCodeSize, r.InlinedCodeSize)
	}
	out := FormatCleanup(rows)
	if !strings.Contains(out, "mtrt") {
		t.Errorf("format wrong:\n%s", out)
	}
}

func TestEntryCheckStudyShowsTheGap(t *testing.T) {
	cfg := testCfg(t, "javac")
	rows, err := EntryCheckStudy(cfg, "small")
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.ExplicitCheckPct < 10*r.OverloadedPct {
		t.Errorf("explicit entry check should dwarf overloaded flag: %.3f vs %.3f",
			r.ExplicitCheckPct, r.OverloadedPct)
	}
	out := FormatEntryCheck(rows)
	if !strings.Contains(out, "javac") {
		t.Errorf("format wrong:\n%s", out)
	}
}

func TestProfilerStudyRuns(t *testing.T) {
	cfg := testCfg(t, "jess", "closures")
	rows, err := ProfilerStudy(cfg, "small")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		// Mincover recovers the exhaustive profile byte for byte from
		// strictly fewer probes.
		if !r.Exact || math.Abs(r.MincoverAccuracy-100) > 1e-9 {
			t.Errorf("%s: mincover exact=%v accuracy=%v, want exact and 100", r.Name, r.Exact, r.MincoverAccuracy)
		}
		if r.ProbedSites <= 0 || r.ProbedSites >= r.TotalSites {
			t.Errorf("%s: mincover probes %d of %d call points, want fewer than all", r.Name, r.ProbedSites, r.TotalSites)
		}
		if r.MincoverPct >= r.ExhaustivePct {
			t.Errorf("%s: mincover overhead %.1f%% should be below exhaustive %.1f%%", r.Name, r.MincoverPct, r.ExhaustivePct)
		}
		if r.CBSAccuracy <= 0 || r.CBSAccuracy > 100 {
			t.Errorf("%s: CBS accuracy %v out of (0,100]", r.Name, r.CBSAccuracy)
		}
	}
	out := FormatProfilers(rows)
	if !strings.Contains(out, "closures") || !strings.Contains(out, "yes") {
		t.Errorf("format wrong:\n%s", out)
	}
}

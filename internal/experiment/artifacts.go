package experiment

import (
	"gocbs/internal/bench"
	"gocbs/internal/profiler"
)

// Artifact is one thing the harness can print: a table or figure of
// the paper's evaluation, or a supplementary study. Its text is a
// function of the configuration and the input size alone.
type Artifact struct {
	Kind   string // "table", "figure" or "study": the cbsbench flag that selects it
	Name   string // the value that flag takes
	Help   string
	Render func(cfg Config, input string) (string, error)
}

// Artifacts is the one list of what the harness regenerates, in the
// order `cbsbench -all` prints it. cbsbench's flags, usage text and
// dispatch, and the byte-identity tests, are all read off it.
var Artifacts = []Artifact{
	{"table", "1", "benchmark characteristics (Table 1)",
		rendered(func(cfg Config, _ string) ([]Table1Row, error) { return Table1(cfg) }, FormatTable1)},
	{"table", "2a", "overhead/accuracy grid, Jikes RVM flavour", table2("Table 2A: Jikes RVM flavour", profiler.FlavourRVM)},
	{"table", "2b", "overhead/accuracy grid, J9 flavour", table2("Table 2B: J9 flavour", profiler.FlavourJ9)},
	{"table", "3", "per-benchmark base vs CBS breakdown",
		rendered(func(cfg Config, _ string) ([]Table3Row, error) { return Table3(cfg, DefaultTable3Params()) },
			func(rows []Table3Row) string { return FormatTable3(rows, DefaultTable3Params()) })},
	{"figure", "5a", "inlining speedups, Jikes RVM flavour", figure5(Figure5Jikes)},
	{"figure", "5b", "inlining speedups, J9 flavour", figure5(Figure5J9)},
	{"study", "convergence", "accuracy vs time on javac-large (E8)",
		rendered(func(cfg Config, _ string) ([]ConvergencePoint, error) {
			return Convergence(cfg, bench.ByName("javac"), "large")
		}, func(pts []ConvergencePoint) string { return FormatConvergence("javac-large", pts) })},
	{"study", "skew", "initial-skip ablation (E9)",
		rendered(func(cfg Config, input string) ([]SkewRow, error) { return SkewAblation(cfg, input, 31, 16) },
			func(rows []SkewRow) string { return FormatSkew(rows, 31, 16) })},
	{"study", "comparators", "§3 techniques side by side (E10)", rendered(Comparators, FormatComparators)},
	{"study", "inliners", "old vs new inliner (E11)", rendered(InlinerAblation, FormatInliners)},
	{"study", "cleanup", "post-inlining cleanup pass ablation", rendered(CleanupAblation, FormatCleanup)},
	{"study", "online", "online adaptive controller warm-up", rendered(Online, FormatOnline)},
	{"study", "entrycheck", "explicit entry check vs overloaded control word", rendered(EntryCheckStudy, FormatEntryCheck)},
	{"study", "context", "calling-context-tree extension (E12)", rendered(ContextStudy, FormatContext)},
	{"study", "profilers", "exhaustive vs CBS vs mincover accuracy/overhead", rendered(ProfilerStudy, FormatProfilers)},
	{"study", "planloop", "fleet PGO loop and its loss ladder: K pushers -> plan chain -> puller",
		rendered(func(cfg Config, input string) (PlanLoopResult, error) {
			return PlanLoop(cfg, input, DefaultPlanLoopParams())
		}, FormatPlanLoop)},
}

// rendered joins an experiment to its formatter.
func rendered[R any](run func(Config, string) (R, error), format func(R) string) func(Config, string) (string, error) {
	return func(cfg Config, input string) (string, error) {
		r, err := run(cfg, input)
		if err != nil {
			return "", err
		}
		return format(r), nil
	}
}

func table2(title string, flavour profiler.Flavour) func(Config, string) (string, error) {
	return func(cfg Config, input string) (string, error) {
		samples := cfg.Samples
		if samples == nil {
			samples = DefaultSamples
		}
		cells, err := Table2(cfg, flavour, input, DefaultStrides, samples)
		if err != nil {
			return "", err
		}
		return FormatTable2(title, cells, DefaultStrides, samples), nil
	}
}

func figure5(which Figure5VM) func(Config, string) (string, error) {
	return rendered(func(cfg Config, input string) ([]Figure5Row, error) { return Figure5(cfg, which, input) },
		func(rows []Figure5Row) string { return FormatFigure5(which, rows) })
}

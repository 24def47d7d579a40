package adaptive

import (
	"reflect"
	"testing"

	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/mj"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

const workSrc = `
	class Op { int apply(int x) { return x + 1; } }
	class Twice extends Op { int apply(int x) { return x * 2; } }
	int helper(int x) { return x + 3; }
	int hot(int n) {
		Op o = new Twice();
		int acc = 0;
		for (int i = 0; i < n; i = i + 1) {
			acc = acc + o.apply(i) + helper(i);
		}
		return acc;
	}
	int main(int n) { return hot(n); }
`

func TestRecompileChargesCompileCycles(t *testing.T) {
	prog, err := mj.Compile(workSrc)
	if err != nil {
		t.Fatal(err)
	}
	cost := vm.DefaultCostModel()
	st, err := Recompile(prog, cost, inline.NewJ9Static(), nil, inline.DefaultOptions())
	if err != nil {
		t.Fatalf("Recompile: %v", err)
	}
	if st.MethodsCompiled != len(prog.Methods) {
		t.Errorf("compiled %d of %d methods", st.MethodsCompiled, len(prog.Methods))
	}
	if st.CompileCycles == 0 || st.InlinesApplied == 0 {
		t.Errorf("stats look empty: %+v", st)
	}
	chargedAsItStands(t, prog, cost, st)
}

// chargedAsItStands: a recompile charges every method of prog once, at
// compileCycles of the code it holds now.
func chargedAsItStands(t *testing.T, prog *bytecode.Program, cost *vm.CostModel, st CompileStats) {
	t.Helper()
	var size int
	var cycles uint64
	for _, m := range prog.Methods {
		size += len(m.Code)
		cycles += compileCycles(cost, len(m.Code))
	}
	if st.TotalCodeSize != size || st.CompileCycles != cycles {
		t.Errorf("charged %d instructions, %d cycles; the methods hold %d, which cost %d", st.TotalCodeSize, st.CompileCycles, size, cycles)
	}
}

func TestRecompileLessInliningCheaper(t *testing.T) {
	// The J9 result: dynamic heuristics with a cold-everything profile
	// inline less, so compilation is cheaper than static-only.
	progStatic, _ := mj.Compile(workSrc)
	progDyn, _ := mj.Compile(workSrc)
	cost := vm.DefaultCostModel()

	stStatic, err := Recompile(progStatic, cost, inline.NewJ9Static(), nil, inline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Dynamic heuristics with a profile that marks every site cold.
	cold := coldProfile()
	stDyn, err := Recompile(progDyn, cost, inline.NewJ9Dynamic(), cold, inline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stDyn.CompileCycles >= stStatic.CompileCycles {
		t.Errorf("suppressed inlining should reduce compile time: dynamic %d vs static %d",
			stDyn.CompileCycles, stStatic.CompileCycles)
	}
	if stDyn.InlinesApplied >= stStatic.InlinesApplied {
		t.Errorf("dynamic-with-cold-profile should inline less: %d vs %d",
			stDyn.InlinesApplied, stStatic.InlinesApplied)
	}
}

// coldProfile builds a non-empty DCG whose edges never match real
// sites, so the dynamic heuristics classify every real site as cold.
func coldProfile() *profile.DCG {
	g := profile.NewDCG()
	g.AddSample(profile.Edge{Caller: 1 << 20, Site: 1 << 20, Callee: 1<<20 + 1}, 100)
	return g
}

func TestOnlineControllerOptimizesHotMethods(t *testing.T) {
	prog, err := mj.Compile(workSrc)
	if err != nil {
		t.Fatal(err)
	}
	cbs := profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Seed: 1})
	ctl := NewController(prog, inline.NewNewLinear(), cbs.Graph, inline.DefaultOptions(), 2)

	m := vm.New(prog)
	m.MaxSteps = 200_000_000
	m.SetProfiler(cbs, ctl)
	m.SetTimer(100_000)

	hot := prog.MethodByName("$Globals.hot")
	before := len(hot.Code)
	if _, err := m.Run(2_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ctl.Err != nil {
		t.Fatalf("controller error: %v", ctl.Err)
	}
	if ctl.Stats.MethodsCompiled == 0 {
		t.Fatal("controller never recompiled anything")
	}
	// The hot loop method should have been optimized and grown by
	// inlining, *unless* it was always on-stack — but main delegates
	// to hot, so hot is on-stack the whole run. Check instead that the
	// system recompiled some method and left the program consistent.
	_ = before
	v2 := vm.New(prog)
	v2.MaxSteps = 200_000_000
	if _, err := v2.Run(1000); err != nil {
		t.Fatalf("program corrupted by online recompilation: %v", err)
	}
}

func TestOnlineControllerNeverRewritesActiveFrames(t *testing.T) {
	prog, err := mj.Compile(workSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(prog, inline.NewJ9Static(), nil, inline.DefaultOptions(), 1)
	m := vm.New(prog)
	m.MaxSteps = 200_000_000
	m.SetProfiler(ctl)
	m.SetTimer(50_000)
	if _, err := m.Run(1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ctl.Err != nil {
		t.Fatalf("controller error: %v", ctl.Err)
	}
	// main and hot live on the stack for the entire run, so they must
	// still be pending or unoptimized — never rewritten mid-flight.
	mainM := prog.MethodByName("$Globals.main")
	if ctl.OptimizedLevel(mainM.ID) == 1 {
		t.Error("main was recompiled while it had an active frame")
	}
}

// Determinism: two identical adaptive runs produce identical cycles.
func TestAdaptiveRunDeterministic(t *testing.T) {
	runOnce := func() uint64 {
		prog, err := mj.Compile(workSrc)
		if err != nil {
			t.Fatal(err)
		}
		cbs := profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 8, Seed: 42})
		ctl := NewController(prog, inline.NewNewLinear(), cbs.Graph, inline.DefaultOptions(), 2)
		m := vm.New(prog)
		m.MaxSteps = 200_000_000
		m.SetProfiler(cbs, ctl)
		m.SetTimer(100_000)
		if _, err := m.Run(500_000); err != nil {
			t.Fatal(err)
		}
		return m.Cycles
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Errorf("adaptive runs differ: %d vs %d cycles", a, b)
	}
}

func TestRecompileWithCleanupShrinksAndPreserves(t *testing.T) {
	progPlain, err := mj.Compile(workSrc)
	if err != nil {
		t.Fatal(err)
	}
	vPlain := vm.New(progPlain)
	vPlain.MaxSteps = 100_000_000
	want, err := vPlain.Run(2000)
	if err != nil {
		t.Fatal(err)
	}

	progA, _ := mj.Compile(workSrc)
	progB, _ := mj.Compile(workSrc)
	cost := vm.DefaultCostModel()
	stA, err := Recompile(progA, cost, inline.NewJ9Static(), nil, inline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stB, err := RecompileWithCleanup(progB, cost, inline.NewJ9Static(), nil, inline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stB.TotalCodeSize >= stA.TotalCodeSize {
		t.Errorf("cleanup should shrink code: %d vs %d", stB.TotalCodeSize, stA.TotalCodeSize)
	}
	if stB.CompileCycles >= stA.CompileCycles {
		t.Errorf("cleanup should reduce modeled compile cycles: %d vs %d", stB.CompileCycles, stA.CompileCycles)
	}
	chargedAsItStands(t, progB, cost, stB)
	vB := vm.New(progB)
	vB.MaxSteps = 100_000_000
	got, err := vB.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != want.I {
		t.Errorf("cleanup changed behaviour: %d vs %d", got.I, want.I)
	}
}

func TestControllerSamplesAccessor(t *testing.T) {
	prog, err := mj.Compile(workSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(prog, inline.NewJ9Static(), nil, inline.DefaultOptions(), 0)
	if ctl.HotThreshold != 1 {
		t.Errorf("threshold should clamp to 1, got %d", ctl.HotThreshold)
	}
	m := vm.New(prog)
	m.MaxSteps = 100_000_000
	m.SetProfiler(ctl)
	m.SetTimer(50_000)
	if _, err := m.Run(300_000); err != nil {
		t.Fatal(err)
	}
	total := 0
	for id := range prog.Methods {
		total += ctl.Samples(id)
	}
	if total == 0 {
		t.Error("controller recorded no hotness samples")
	}
}

// spoiled plans, for step alone, a sound inline of two and a guard on
// the static call to one, which the inliner refuses.
type spoiled struct{}

func (spoiled) Name() string { return "spoiled" }

func (spoiled) Plan(prog *bytecode.Program, m *bytecode.Method, _ *inline.Evidence) []inline.Decision {
	if m.Name != "$Globals.step" {
		return nil
	}
	var ds []inline.Decision
	for _, cs := range inline.ScanCalls(prog, m) {
		ds = append(ds, inline.Decision{PC: cs.PC, Target: cs.Static, Guarded: cs.Static.Name == "$Globals.one"})
	}
	return ds
}

// A recompilation that fails records its error and changes nothing: the
// VM the controller rides on goes on running the method as it was and
// finishes with the result of a run that was never recompiled, and so
// does a VM made afterwards.
func TestFailedRecompileLeavesProgramRunning(t *testing.T) {
	const src = `
		int one(int x) { return x + 1; }
		int two(int x, int y) { return x * 3 + y; }
		int step(int i, int acc) { return acc + one(i) + two(i, acc) % 7; }
		int main(int n) {
			int acc = 0;
			for (int i = 0; i < n; i = i + 1) { acc = step(i, acc) % 1000003; }
			return acc;
		}
	`
	run := func(prog *bytecode.Program, ctl *Controller) int64 {
		t.Helper()
		m := vm.New(prog)
		m.MaxSteps = 100_000_000
		if ctl != nil {
			m.SetProfiler(ctl)
			m.SetTimer(997)
		}
		v, err := m.Run(20_000)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return v.I
	}
	ref, err := mj.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	want := run(ref, nil)

	prog, err := mj.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(prog, spoiled{}, nil, inline.DefaultOptions(), 1)
	got := run(prog, ctl)
	if ctl.Err == nil {
		t.Fatal("the controller never met the refused decision")
	}
	step, refStep := prog.MethodByName("$Globals.step"), ref.MethodByName("$Globals.step")
	if !reflect.DeepEqual(step.Code, refStep.Code) || step.NLocals != refStep.NLocals || step.MaxStack != refStep.MaxStack {
		t.Errorf("after %v, step is\n%s", ctl.Err, bytecode.DisasmMethod(prog, step))
	}
	if got != want {
		t.Errorf("the run whose recompilation failed returned %d, an undisturbed one %d", got, want)
	}
	if again := run(prog, nil); again != want {
		t.Errorf("a fresh VM on the program returned %d, an undisturbed one %d", again, want)
	}
}

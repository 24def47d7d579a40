package profiler

import (
	"testing"

	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
	"gocbs/internal/vm"
)

// tickCounter implements only the tick hook.
type tickCounter struct{ n int }

func (t *tickCounter) Name() string       { return "tick-counter" }
func (t *tickCounter) OnTimerTick(*vm.VM) { t.n++ }

// callCounter implements only the call hook.
type callCounter struct{ n int }

func (c *callCounter) Name() string                                           { return "call-counter" }
func (c *callCounter) OnCall(*vm.VM, *bytecode.Method, int, *bytecode.Method) { c.n++ }

// inert is a vm.Profiler that implements no listener interface at all.
type inert struct{}

func (inert) Name() string { return "inert" }

func TestMultiFansOutToAllParts(t *testing.T) {
	adv := buildAdversary(t, 60)
	cbs := NewCBS(Config{Stride: 3, SamplesPerTick: 8, Seed: 1})
	ticks := &tickCounter{}
	calls := &callCounter{}

	m := vm.New(adv.prog)
	m.MaxSteps = 100_000_000
	m.SetProfiler(cbs, ticks, calls)
	m.SetTimer(50_000)
	if _, err := m.Run(5_000); err != nil {
		t.Fatal(err)
	}
	if ticks.n == 0 {
		t.Error("tick listener not invoked beside the others")
	}
	if uint64(calls.n) != m.Calls {
		t.Errorf("call listener saw %d of %d calls", calls.n, m.Calls)
	}
	if cbs.SamplesTaken == 0 {
		t.Error("CBS did not sample beside the others")
	}
	if int(cbs.Ticks) != ticks.n {
		t.Errorf("parts saw different tick counts: %d vs %d", cbs.Ticks, ticks.n)
	}
}

func TestMultiWithNonListenersIsHarmless(t *testing.T) {
	// Profilers implementing no listener interface ride along inert,
	// and nil parts are skipped rather than crashing.
	adv := buildAdversary(t, 40)
	v := vm.New(adv.prog)
	v.SetProfiler(inert{}, nil, inert{})
	v.SetTimer(50_000)
	if _, err := v.Run(100); err != nil {
		t.Fatal(err)
	}
}

func TestSetProfilerNilDetaches(t *testing.T) {
	adv := buildAdversary(t, 40)
	v := vm.New(adv.prog)
	ticks := &tickCounter{}
	v.SetProfiler(ticks)
	v.SetTimer(50_000)
	v.SetProfiler(nil)
	if _, err := v.Run(100); err != nil {
		t.Fatal(err)
	}
	if ticks.n != 0 {
		t.Errorf("detached profiler still saw %d ticks", ticks.n)
	}
}

func TestExhaustiveCCTGroundTruth(t *testing.T) {
	adv := buildAdversary(t, 40)
	e := NewExhaustiveCCT()
	m := vm.New(adv.prog)
	m.MaxSteps = 100_000_000
	m.SetProfiler(e)
	if _, err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	// Contexts: main; main->M; main->M->call_1; main->M->call_2.
	if got := e.Tree.NumNodes(); got != 4 {
		t.Errorf("CCT nodes = %d, want 4", got)
	}
	if e.Tree.Total() != float64(m.Calls)+1 {
		// +1: the harness entry into main is also a recorded path? No —
		// OnCall fires per dynamic call; harness entry is not a call.
		// So total must equal m.Calls exactly.
		t.Logf("total=%v calls=%d", e.Tree.Total(), m.Calls)
	}
	if e.Tree.Total() != float64(m.Calls) {
		t.Errorf("CCT total %v != calls %d", e.Tree.Total(), m.Calls)
	}
	// Flattening the exhaustive CCT must equal the exhaustive DCG.
	flat := NewExhaustive()
	m2 := vm.New(adv.prog)
	m2.SetProfiler(flat)
	if _, err := m2.Run(50); err != nil {
		t.Fatal(err)
	}
	if o := profile.Overlap(e.Tree.Flatten(), flat.Graph); o < 99.999 {
		t.Errorf("flattened exhaustive CCT should equal exhaustive DCG, overlap %v", o)
	}
}

func TestProfilerNames(t *testing.T) {
	cases := map[string]string{
		NewExhaustive().Name():      "exhaustive",
		NewInstrumented().Name():    "exhaustive-instrumented",
		NewExhaustiveCCT().Name():   "exhaustive-cct",
		NewWhaley().Name():          "whaley",
		NewPatching(1, 1, 1).Name(): "code-patching",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("name %q, want %q", got, want)
		}
	}
	if FlavourRVM.String() != "JikesRVM" || FlavourJ9.String() != "J9" {
		t.Error("flavour names wrong")
	}
	if SkipRandom.String() != "random" || SkipRoundRobin.String() != "round-robin" || SkipImmediate.String() != "immediate" {
		t.Error("skip policy names wrong")
	}
	c := NewCBS(Config{Stride: 5, SamplesPerTick: 2})
	if c.Config().Stride != 5 {
		t.Error("Config accessor wrong")
	}
}

func TestCBSConfigClamping(t *testing.T) {
	c := NewCBS(Config{Stride: 0, SamplesPerTick: -3})
	if c.Config().Stride != 1 || c.Config().SamplesPerTick != 1 {
		t.Errorf("invalid config should clamp to (1,1), got %+v", c.Config())
	}
}

package profiler

import (
	"testing"

	"gocbs/internal/adaptive"
	"gocbs/internal/inline"
	"gocbs/internal/vm"
)

// TestCBSWindowSurvivesCoalescedTicksUnderAdaptive mirrors
// TestCBSWindowSurvivesCoalescedTicks through the adaptive path: the
// timer tick is shared between the CBS profiler and the online adaptive
// controller installed beside it, so the controller samples hotness and
// recompiles methods off the same ticks that keep the CBS window open.
// Neither the extra tick consumer nor a mid-run recompilation may reset
// the still-open window's countdown state.
func TestCBSWindowSurvivesCoalescedTicksUnderAdaptive(t *testing.T) {
	adv := buildAdversary(t, 100)
	c := NewCBS(Config{Stride: 3, SamplesPerTick: 1 << 30, Flavour: FlavourRVM, Seed: 1})
	ctl := adaptive.NewController(adv.prog, inline.NewNewLinear(), c.Graph, inline.DefaultOptions(), 2)

	m := vm.New(adv.prog)
	m.MaxSteps = 200_000_000
	m.SetProfiler(c, ctl)
	m.SetTimer(30_000)
	if _, err := m.Run(20_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ctl.Err != nil {
		t.Fatalf("controller error: %v", ctl.Err)
	}
	if c.Ticks < 2 {
		t.Skipf("need multiple ticks, got %d", c.Ticks)
	}
	// Same window assertions as the CBS-only test: samples accumulated
	// continuously across every tick.
	if perTick := c.WindowEvents / c.Ticks; perTick == 0 {
		t.Error("window died after the first tick")
	}
	if m.ControlWord == 0 && c.SamplesTaken < uint64(m.Calls)/6 {
		t.Errorf("window should have sampled continuously: %d samples for %d calls",
			c.SamplesTaken, m.Calls)
	}
	// The controller really shared the ticks: the loop method was
	// sampled as hot, and — being on-stack for the whole run — must
	// never have been rewritten mid-flight.
	if ctl.Samples(adv.m.ID) == 0 {
		t.Error("controller saw no hotness samples for the hot loop method")
	}
	if ctl.OptimizedLevel(adv.m.ID) == 1 {
		t.Error("on-stack loop method was recompiled mid-flight")
	}
}

package profiler

import (
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
	"gocbs/internal/vm"
)

// Exhaustive records every dynamic call into the DCG. With
// Instrumented == false it is the experiment infrastructure that
// produces the *perfect* profile accuracy is measured against, and it
// charges no cycles. With Instrumented == true it models Vortex-style
// PIC counters (§3.1): every call pays an instrumentation cost, which
// reproduces the paper's report of 15–50% overhead for exhaustive
// counter collection. Either way it is a vm.CallCounter with every call
// point counted: the VM bumps a counter at the call, as the modelled
// system does, and Graph holds every call made so far whenever the VM
// is not running (see vm.CallCounter for when counts are folded in).
type Exhaustive struct {
	Graph *profile.DCG
	// Instrumented charges vm.Cost.InstrumentationCost per call.
	Instrumented bool
}

var (
	_ vm.Profiler    = (*Exhaustive)(nil)
	_ vm.CallCounter = (*Exhaustive)(nil)
)

// NewExhaustive returns a zero-overhead perfect profiler.
func NewExhaustive() *Exhaustive {
	return &Exhaustive{Graph: profile.NewDCG()}
}

// NewInstrumented returns the Vortex-style costed variant.
func NewInstrumented() *Exhaustive {
	return &Exhaustive{Graph: profile.NewDCG(), Instrumented: true}
}

// Name describes the profiler for reports.
func (e *Exhaustive) Name() string {
	if e.Instrumented {
		return "exhaustive-instrumented"
	}
	return "exhaustive"
}

// Counts implements vm.CallCounter: every call point is counted.
func (e *Exhaustive) Counts(_ *bytecode.Method, _ int, c *vm.CostModel) (uint64, bool) {
	if e.Instrumented {
		return c.InstrumentationCost, true
	}
	return 0, true
}

// Fold implements vm.CallCounter. Harness entries are no DCG edge.
func (e *Exhaustive) Fold(caller, site, callee int, n uint64) {
	if site >= 0 {
		e.Graph.AddSample(profile.Edge{Caller: caller, Site: site, Callee: callee}, float64(n))
	}
}

// ExhaustiveCCT records the full calling context of every dynamic call,
// producing the ground-truth calling-context tree the context-sensitive
// extension (E12) is scored against. It charges no cycles: like
// Exhaustive, it is experiment infrastructure, not a deployable
// profiler.
type ExhaustiveCCT struct {
	Tree *profile.CCT
}

var (
	_ vm.Profiler     = (*ExhaustiveCCT)(nil)
	_ vm.CallListener = (*ExhaustiveCCT)(nil)
)

// NewExhaustiveCCT returns an empty ground-truth CCT collector.
func NewExhaustiveCCT() *ExhaustiveCCT {
	return &ExhaustiveCCT{Tree: profile.NewCCT()}
}

// Name describes the profiler for reports.
func (e *ExhaustiveCCT) Name() string { return "exhaustive-cct" }

// OnCall implements vm.CallListener. The callee's frame is not pushed
// yet when the hook runs, so the path is the caller context plus the
// new (site, callee) step.
func (e *ExhaustiveCCT) OnCall(m *vm.VM, caller *bytecode.Method, site int, callee *bytecode.Method) {
	path := capturePath(m)
	path = append(path, profile.PathStep{Site: site, Method: callee.ID})
	e.Tree.AddPath(path, 1)
}

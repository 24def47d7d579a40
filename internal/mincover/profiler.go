package mincover

import (
	"fmt"

	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
	"gocbs/internal/vm"
)

// Profiler is the minimum-coverage profile source: a vm.CallCounter
// whose counted points are the cover's probed ones — the VM counts a call
// there and leaves every other call unwatched — and which reconstructs
// the complete DCG at Finalize time by solving the conservation system.
// The recovered graph lands in the same live *profile.DCG the probes
// increment, so delta pushers attached to Graph see probed weight during
// the run and the derived remainder after Finalize — everything
// downstream (DCGB-v1 encoding, dcgstore, plans, federation) works
// unchanged.
type Profiler struct {
	Cover *Cover
	Graph *profile.DCG

	// Unexpected counts dynamic edges observed at probed points that
	// the static graph does not contain. Always zero unless the
	// extractor's soundness argument is violated; such edges are still
	// recorded so no weight is silently dropped.
	Unexpected uint64

	// harness[m] counts invocations of method m pushed directly by the
	// host via vm.Call (frames with no call site), which the VM folds
	// with site -1. These carry no modeled cost: the harness knows its
	// own invocation counts without any VM-side instrumentation, just
	// as the zero-cost Exhaustive baseline knows its samples.
	harness []float64

	edgeSet   map[profile.Edge]bool
	finalized bool
	finalErr  error
}

var (
	_ vm.Profiler    = (*Profiler)(nil)
	_ vm.CallCounter = (*Profiler)(nil)
)

// New computes a minimal cover for prog and wraps it in a ready-to-run
// profiler. Call it on the program the VM will actually execute (after
// any inlining), so the static graph matches the executed code.
func New(prog *bytecode.Program) *Profiler {
	return FromCover(Compute(prog))
}

// FromCover builds a profiler over a precomputed cover, letting many
// VMs running clones of one program share the static analysis.
func FromCover(c *Cover) *Profiler {
	p := &Profiler{
		Cover:   c,
		Graph:   profile.NewDCG(),
		harness: make([]float64, c.Graph.NumMethods),
		edgeSet: make(map[profile.Edge]bool, len(c.Graph.Edges)),
	}
	for _, e := range c.Graph.Edges {
		p.edgeSet[profile.Edge{Caller: e.Caller, Site: e.Site, Callee: e.Callee}] = true
	}
	return p
}

// Name implements vm.Profiler.
func (p *Profiler) Name() string { return "mincover" }

// Counts implements vm.CallCounter: the cover's probed points, each call
// at one paying the instrumentation cost the exhaustive-instrumented
// profiler models. The VM asks once per call instruction; a call at an
// unprobed point has nobody watching it, free in the model and on the clock.
func (p *Profiler) Counts(caller *bytecode.Method, site int, c *vm.CostModel) (uint64, bool) {
	return c.InstrumentationCost, p.Cover.Probed[Point{Method: caller.ID, Site: site}]
}

// Fold implements vm.CallCounter: n calls along a probed edge, or, with
// site -1, n harness-pushed entries of callee (vm.Call invocations;
// entries that arrived through a call instruction are covered by the
// edge system).
func (p *Profiler) Fold(caller, site, callee int, n uint64) {
	if site < 0 {
		if callee >= 0 && callee < len(p.harness) {
			p.harness[callee] += float64(n)
		}
		return
	}
	e := profile.Edge{Caller: caller, Site: site, Callee: callee}
	if !p.edgeSet[e] {
		p.Unexpected += n
	}
	p.Graph.AddSample(e, float64(n))
}

// Finalize solves the conservation system from the probe counts
// accumulated in Graph plus the harness invocation counts, and injects
// each edge's derived remainder into Graph — after which Graph is the
// complete recovered DCG, exactly equal to what exhaustive profiling
// would have collected on the same deterministic run. Idempotent;
// returns the first error on repeat calls. Call it after the run
// completes and before the final flush of any attached pusher.
func (p *Profiler) Finalize() error {
	if p.finalized {
		return p.finalErr
	}
	p.finalized = true
	vals, err := p.Cover.Recover(
		func(e StaticEdge) float64 {
			return p.Graph.Weight(profile.Edge{Caller: e.Caller, Site: e.Site, Callee: e.Callee})
		},
		func(m int) float64 { return p.harness[m] },
	)
	if err != nil {
		p.finalErr = err
		return err
	}
	for i, e := range p.Cover.Graph.Edges {
		pe := profile.Edge{Caller: e.Caller, Site: e.Site, Callee: e.Callee}
		d := vals[i] - p.Graph.Weight(pe)
		if d > 0 {
			p.Graph.AddSample(pe, d)
		} else if d < -1e-6 {
			p.finalErr = fmt.Errorf("mincover: recovered count for %v is %g below its measured probe count", pe, -d)
			return p.finalErr
		}
	}
	return nil
}

// Package adaptive models the adaptive optimization systems the paper's
// profilers plug into (§5): selecting methods for recompilation at a
// higher optimization level, applying a profile-directed inlining
// policy, and charging modeled compilation time.
//
// Two modes are provided. Recompile is the offline-style pass used by
// the steady-state methodology of §6.3 (profile during warmup,
// recompile everything, measure). Controller is an online system in the
// style of Jikes RVM's AOS: timer-tick method samples accumulate
// hotness, and methods crossing a threshold are recompiled mid-run —
// but only while they have no active frame on the call stack, since
// the VM (like real JITs without on-stack replacement) cannot swap the
// code under a running activation.
package adaptive

import (
	"fmt"

	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/opt"
	"gocbs/internal/profile"
	"gocbs/internal/vm"
)

// CompileStats reports the cost of a recompilation pass.
type CompileStats struct {
	MethodsCompiled int
	CompileCycles   uint64
	TotalCodeSize   int
	InlinesApplied  int
	GuardedInlines  int
}

// compileCycles models the paper's compilation-time measurements:
// compile cost grows with the post-inlining method size, which is how
// J9's dynamic heuristics reduced compile time 9% by inlining *less*.
func compileCycles(cost *vm.CostModel, codeSize int) uint64 {
	return cost.CompileBase + cost.CompilePerInstr*uint64(codeSize)
}

// Recompile optimizes every method of prog with the policy and a
// collected profile, returning compile statistics (each method compiled
// once, at compileCycles of its final size). It mutates prog in place;
// callers wanting a baseline must compile a fresh program.
func Recompile(prog *bytecode.Program, cost *vm.CostModel, policy inline.Policy, g *profile.DCG, opts inline.Options) (CompileStats, error) {
	n := len(prog.Methods)
	rep, err := inline.Optimize(prog, policy, g, opts)
	if err != nil {
		return CompileStats{}, fmt.Errorf("recompile: %w", err)
	}
	return CompileStats{
		MethodsCompiled: n,
		CompileCycles:   uint64(n)*cost.CompileBase + cost.CompilePerInstr*uint64(rep.TotalCodeSize),
		TotalCodeSize:   rep.TotalCodeSize,
		InlinesApplied:  rep.InlinesApplied,
		GuardedInlines:  rep.GuardedInlines,
	}, nil
}

// RecompileWithCleanup runs Recompile and then the peephole cleanup
// pass (jump threading, constant folding, dead-code elimination) over
// every method, mirroring a JIT's post-inline tidy-up. The published
// experiments run without it; the cleanup ablation (E13) measures its
// effect.
func RecompileWithCleanup(prog *bytecode.Program, cost *vm.CostModel, policy inline.Policy, g *profile.DCG, opts inline.Options) (CompileStats, error) {
	st, err := Recompile(prog, cost, policy, g, opts)
	if err != nil {
		return st, err
	}
	removed, err := opt.CleanupProgram(prog)
	if err != nil {
		return st, err
	}
	// Compile cost is charged on the slimmer code.
	st.TotalCodeSize -= removed
	st.CompileCycles -= cost.CompilePerInstr * uint64(removed)
	return st, nil
}

// Controller is the online adaptive optimization system. Install it as
// (part of) the VM's profiler: it consumes timer ticks for hotness
// sampling and defers to an inner profiler for DCG collection.
type Controller struct {
	Policy inline.Policy
	Opts   inline.Options
	// Graph supplies the profile consulted at recompilation time
	// (normally the DCG being built online by the CBS profiler).
	Graph *profile.DCG
	// HotThreshold is how many method samples promote a method.
	HotThreshold int

	prog    *bytecode.Program
	samples []int
	level   []int // 0 = baseline, 1 = optimized
	pending []int // methods waiting for their frames to drain

	Stats CompileStats
	// Err records the first recompilation failure (the controller
	// stops optimizing after an error rather than corrupting code).
	Err error
}

var (
	_ vm.Profiler     = (*Controller)(nil)
	_ vm.TickListener = (*Controller)(nil)
)

// NewController creates a controller for prog.
func NewController(prog *bytecode.Program, policy inline.Policy, g *profile.DCG, opts inline.Options, hotThreshold int) *Controller {
	if hotThreshold < 1 {
		hotThreshold = 1
	}
	return &Controller{
		Policy:       policy,
		Opts:         opts,
		Graph:        g,
		HotThreshold: hotThreshold,
		prog:         prog,
		samples:      make([]int, len(prog.Methods)),
		level:        make([]int, len(prog.Methods)),
	}
}

// Name implements vm.Profiler.
func (c *Controller) Name() string { return "adaptive-controller" }

// OnTimerTick implements vm.TickListener: sample the executing method,
// promote it when hot, and drain any postponed recompilations whose
// frames have exited.
func (c *Controller) OnTimerTick(m *vm.VM) {
	if c.Err != nil {
		return
	}
	if top := m.TopMethod(); top != nil {
		c.samples[top.ID]++
		if c.level[top.ID] == 0 && c.samples[top.ID] >= c.HotThreshold {
			c.level[top.ID] = -1 // queued
			c.pending = append(c.pending, top.ID)
		}
	}
	if len(c.pending) == 0 {
		return
	}
	onStack := map[int]bool{}
	m.WalkStack(func(meth *bytecode.Method, pc int) bool {
		onStack[meth.ID] = true
		return true
	})
	var still []int
	for _, id := range c.pending {
		if onStack[id] {
			still = append(still, id)
			continue
		}
		c.recompile(m, c.prog.Methods[id])
	}
	c.pending = still
}

// recompile optimizes one method and charges compile cycles to the VM
// (compilation happens on the application's dime in a JIT).
func (c *Controller) recompile(m *vm.VM, meth *bytecode.Method) {
	n, guarded, err := inline.OptimizeMethod(c.prog, c.Policy, c.Graph, meth, c.Opts)
	if err != nil {
		c.Err = err
		return
	}
	c.level[meth.ID] = 1
	c.Stats.MethodsCompiled++
	c.Stats.InlinesApplied += n
	c.Stats.GuardedInlines += guarded
	c.Stats.TotalCodeSize += len(meth.Code)
	cy := compileCycles(m.Cost, len(meth.Code))
	c.Stats.CompileCycles += cy
	m.ChargeCycles(cy)
}

// OptimizedLevel returns a method's current optimization level (0 or
// 1; -1 while queued).
func (c *Controller) OptimizedLevel(id int) int { return c.level[id] }

// Samples returns how many hotness samples a method has received.
func (c *Controller) Samples(id int) int { return c.samples[id] }

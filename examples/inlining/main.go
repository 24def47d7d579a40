// Inlining: the full feedback-directed optimization pipeline on one
// suite benchmark — profile online with CBS, recompile every method
// with the paper's new linear-threshold inliner, and measure the
// steady-state speedup, comparing against a timer-only profile and a
// no-profile baseline.
//
//	go run ./examples/inlining [benchmark]
package main

import (
	"fmt"
	"log"
	"os"

	"gocbs/internal/adaptive"
	"gocbs/internal/bench"
	"gocbs/internal/inline"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

const timerPeriod = 3_000_000

func main() {
	name := "mtrt"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	b := bench.ByName(name)
	if b == nil {
		log.Fatalf("unknown benchmark %q", name)
	}
	fmt.Printf("benchmark %s (small input, %d warmup + %d measured iterations)\n\n",
		b.Name, b.SteadyIters, b.SteadyIters)

	base := steadyCycles(b, nil, nil)
	fmt.Printf("%-28s %12d cycles/iteration\n", "baseline (static inlining):", base)

	cbs := profiler.DefaultCBS(profiler.FlavourRVM)
	cbs.Seed = 42
	for _, cfg := range []struct {
		label string
		pc    profiler.Config
	}{
		{"timer-only profile:", profiler.TimerOnly(profiler.FlavourRVM)},
		{"cbs (stride 3, samples 16):", cbs},
	} {
		g := collectProfile(b, cfg.pc)
		per := steadyCycles(b, inline.NewNewLinear(), g)
		fmt.Printf("%-28s %12d cycles/iteration  (%+.2f%% vs baseline, %d DCG edges)\n",
			cfg.label, per, (float64(base)/float64(per)-1)*100, g.NumEdges())
	}
}

// collectProfile runs warmup iterations under a CBS configuration.
func collectProfile(b *bench.Benchmark, pc profiler.Config) *profile.DCG {
	prog, err := b.Compile()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
		log.Fatal(err)
	}
	c := profiler.NewCBS(pc)
	m := vm.New(prog)
	m.SetProfiler(c)
	m.SetTimer(timerPeriod)
	iter, err := bench.Setup(m, b.Small)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < b.SteadyIters; i++ {
		if _, err := m.Call(iter); err != nil {
			log.Fatal(err)
		}
	}
	return c.Graph
}

// steadyCycles recompiles with the policy (nil profile = static-only
// decisions) and measures steady-state cycles per iteration.
func steadyCycles(b *bench.Benchmark, policy inline.Policy, g *profile.DCG) uint64 {
	prog, err := b.Compile()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
		log.Fatal(err)
	}
	if policy == nil {
		policy = inline.NewNewLinear()
	}
	if _, err := adaptive.Recompile(prog, vm.DefaultCostModel(), policy, g, inline.DefaultOptions()); err != nil {
		log.Fatal(err)
	}
	m := vm.New(prog)
	iter, err := bench.Setup(m, b.Small)
	if err != nil {
		log.Fatal(err)
	}
	start := m.Cycles
	for i := 0; i < b.SteadyIters; i++ {
		if _, err := m.Call(iter); err != nil {
			log.Fatal(err)
		}
	}
	return (m.Cycles - start) / uint64(b.SteadyIters)
}

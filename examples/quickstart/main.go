// Quickstart: compile an MJ program, run it under the CBS profiler,
// and inspect the dynamic call graph it collected.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gocbs/internal/mj"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

const src = `
	class Greeter {
		int greet(int who) { return who * 2; }
	}
	class LoudGreeter extends Greeter {
		int greet(int who) { return who * 10; }
	}
	int helper(int x) { return x + 1; }
	int main(int n) {
		Greeter quiet = new Greeter();
		Greeter loud = new LoudGreeter();
		int acc = 0;
		for (int i = 0; i < n; i = i + 1) {
			acc = acc + quiet.greet(i);              // hot virtual call
			if (i % 4 == 0) { acc = acc + loud.greet(i); }
			acc = acc + helper(acc);                 // hot static call
			acc = acc & 0xFFFF;
		}
		return acc;
	}
`

func main() {
	// 1. Compile MJ source to verified bytecode.
	prog, err := mj.Compile(src)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Create a VM and attach the paper's counter-based sampler:
	//    every timer tick opens a window in which every 3rd call event
	//    is sampled, 16 samples per tick (the Table 3 configuration).
	pc := profiler.DefaultCBS(profiler.FlavourRVM)
	pc.Seed = 1
	cbs := profiler.NewCBS(pc)
	m := vm.New(prog)
	m.SetProfiler(cbs)
	m.SetTimer(200_000) // virtual timer period in modeled cycles

	// 3. Run and inspect.
	result, err := m.Run(2_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("result = %d after %d calls in %d modeled cycles\n", result.I, m.Calls, m.Cycles)
	fmt.Printf("profiling overhead: %.3f%%\n\n", m.Overhead()*100)

	// 4. The sampled dynamic call graph. Edge weights are sample
	//    counts; Percent() normalizes them.
	names := func(id int) string { return prog.Methods[id].Name }
	fmt.Print(cbs.Graph.Dump(names, prog.SiteDescription))

	// 5. Compare against ground truth from an exhaustive profile.
	perfect := profiler.NewExhaustive()
	m2 := vm.New(prog)
	m2.SetProfiler(perfect)
	if _, err := m2.Run(2_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naccuracy vs exhaustive profile: %.1f / 100\n",
		profile.Accuracy(cbs.Graph, perfect.Graph))
}

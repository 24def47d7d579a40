// Offline profile-guided optimization: the full persistence pipeline.
// A "training" process profiles a benchmark with CBS and saves the DCG
// to disk; a separate "build" step reloads the profile, feeds it to
// the inliner, and writes an optimized MJBC binary; a final "deploy"
// step loads that binary and measures it. This mirrors how a
// profile repository decouples profiling from optimizing compilation.
//
//	go run ./examples/offline-pgo [benchmark]
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"gocbs/internal/adaptive"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

func main() {
	name := "jess"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	b := bench.ByName(name)
	if b == nil {
		log.Fatalf("unknown benchmark %q", name)
	}

	// --- Training run: profile with CBS and persist the DCG. ---
	prog, err := b.Compile()
	if err != nil {
		log.Fatal(err)
	}
	pc := profiler.DefaultCBS(profiler.FlavourRVM)
	pc.Seed = 1
	cbs := profiler.NewCBS(pc)
	m := vm.New(prog)
	m.SetProfiler(cbs)
	m.SetTimer(3_000_000)
	if _, err := m.Run(b.Small); err != nil {
		log.Fatal(err)
	}
	var profileBlob bytes.Buffer
	if _, err := cbs.Graph.WriteTo(&profileBlob); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training:  %d samples -> %d DCG edges, %d-byte profile\n",
		int(cbs.Graph.Total()), cbs.Graph.NumEdges(), profileBlob.Len())

	// --- Build step: fresh compile + reloaded profile -> optimized binary. ---
	loaded, err := profile.ReadDCG(&profileBlob)
	if err != nil {
		log.Fatal(err)
	}
	buildProg, err := b.Compile()
	if err != nil {
		log.Fatal(err)
	}
	st, err := adaptive.RecompileWithCleanup(buildProg, vm.DefaultCostModel(),
		inline.NewNewLinear(), loaded, inline.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	var binary bytes.Buffer
	if err := bytecode.EncodeProgram(buildProg, &binary); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("build:     %d inlines (%d guarded), %d-byte MJBC binary\n",
		st.InlinesApplied, st.GuardedInlines, binary.Len())

	// --- Deploy: load the binary and measure against the unoptimized build. ---
	deployed, err := bytecode.DecodeProgram(&binary)
	if err != nil {
		log.Fatal(err)
	}
	measure := func(p *bytecode.Program) uint64 {
		mm := vm.New(p)
		iter, err := bench.Setup(mm, b.Small)
		if err != nil {
			log.Fatal(err)
		}
		start := mm.Cycles
		for i := 0; i < b.SteadyIters; i++ {
			if _, err := mm.Call(iter); err != nil {
				log.Fatal(err)
			}
		}
		return (mm.Cycles - start) / uint64(b.SteadyIters)
	}
	plain, err := b.Compile()
	if err != nil {
		log.Fatal(err)
	}
	base := measure(plain)
	opt := measure(deployed)
	fmt.Printf("deploy:    %d -> %d cycles/iteration (%+.2f%%)\n",
		base, opt, (float64(base)/float64(opt)-1)*100)
}

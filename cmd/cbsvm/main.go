// Command cbsvm runs an MJ program (a file or a named suite benchmark)
// under a chosen call-graph profiler and reports the collected dynamic
// call graph, its accuracy against an exhaustive profile, and the
// profiling overhead.
//
//	cbsvm -bench javac -size small
//	cbsvm -bench mtrt -stride 7 -samples 32 -flavour j9
//	cbsvm -file prog.mj -arg 500 -profiler timer
//	cbsvm -bench jess -profiler whaley -top 10
//	cbsvm -bench compress -profiler mincover
//	cbsvm -bench compress -push http://localhost:8944 -push-every 50
//
// With -push, the collected DCG is streamed to a cbsd aggregation
// daemon as non-overlapping delta snapshots: one every -push-every
// timer ticks plus a final flush, so the daemon's merge of all
// increments equals this run's final graph exactly. Each increment is
// stamped with a (pusher, sequence) pair, making delivery idempotent:
// transient failures are retried with backoff, undelivered increments
// stay queued for the next tick, and a retry whose first attempt
// actually landed is deduplicated by the daemon instead of
// double-counted. After dcgstore.DefaultGiveUpAfter failed ticks in a
// row, periodic pushing stops and only the final flush is tried.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/dcgstore"
	"gocbs/internal/experiment"
	"gocbs/internal/inline"
	"gocbs/internal/mincover"
	"gocbs/internal/mj"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/puller"
	"gocbs/internal/vm"
)

func main() {
	benchName := flag.String("bench", "", "suite benchmark to run (see -list)")
	list := flag.Bool("list", false, "list suite benchmarks and exit")
	file := flag.String("file", "", "MJ source file to run instead of a suite benchmark")
	arg := flag.Int64("arg", 0, "integer argument passed to main (with -file)")
	size := flag.String("size", "small", "input size for -bench: small or large")
	prof := flag.String("profiler", "cbs", "profiler: cbs, timer, whaley, patching, exhaustive, mincover")
	def := profiler.DefaultCBS(profiler.FlavourRVM)
	stride := flag.Int("stride", def.Stride, "CBS stride")
	samples := flag.Int("samples", def.SamplesPerTick, "CBS samples per timer tick")
	flavour := flag.String("flavour", "rvm", "VM flavour: rvm or j9")
	seed := flag.Int64("seed", 42, "profiler RNG seed; with -push and no -seed, derived from the pusher ID and printed")
	timer := flag.Uint64("timer", experiment.DefaultTimerPeriod, "virtual timer period in cycles")
	top := flag.Int("top", 20, "number of DCG edges to print")
	saveProfile := flag.String("save", "", "write the collected DCG to this file")
	pushURL := flag.String("push", "", "stream the DCG to a cbsd daemon at this base URL")
	pushEvery := flag.Int("push-every", 50, "with -push: push a delta snapshot every N timer ticks (0 = final push only)")
	pullURL := flag.String("pull-plan", "", "run in plan-pulling mode against a cbsd daemon at this base URL (requires -bench)")
	pullRounds := flag.Int("pull-rounds", 6, "with -pull-plan: total top-level benchmark rounds to run")
	pullEvery := flag.Int("pull-every", 2, "with -pull-plan: poll the daemon every N rounds")
	pullIters := flag.Int("pull-iters", 2, "with -pull-plan: benchmark iterations per round")
	flag.Parse()
	flavours := map[string]profiler.Flavour{"rvm": profiler.FlavourRVM, "j9": profiler.FlavourJ9}
	fl, ok := flavours[*flavour]
	if !ok {
		fatal(fmt.Errorf("-flavour %q: valid values are rvm, j9", *flavour))
	}
	if *size != "small" && *size != "large" {
		fatal(fmt.Errorf("-size %q: valid values are small, large", *size))
	}

	if *list {
		for _, b := range bench.All() {
			fmt.Printf("%-12s %s\n", b.Name, b.Description)
		}
		return
	}

	var prog *bytecode.Program
	var runArg int64
	var err error
	switch {
	case *benchName != "":
		b := bench.ByName(*benchName)
		if b == nil {
			fatal(fmt.Errorf("unknown benchmark %q (use -list)", *benchName))
		}
		prog, err = b.Compile()
		if err != nil {
			fatal(err)
		}
		runArg = b.SizeFor(*size)
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		prog, err = mj.Compile(string(src))
		if err != nil {
			fatal(err)
		}
		runArg = *arg
	default:
		fatal(fmt.Errorf("pass -bench NAME or -file FILE (or -list)"))
	}

	if err := inline.JITOnly(prog); err != nil {
		fatal(err)
	}

	// Plan-pulling mode: no local profiling run; the VM executes the
	// benchmark in rounds and applies whatever inlining plan the
	// daemon compiled from the fleet's aggregated profile.
	if *pullURL != "" {
		if *benchName == "" {
			fatal(fmt.Errorf("-pull-plan requires -bench (plans are keyed by benchmark name)"))
		}
		if *pushURL != "" {
			fatal(fmt.Errorf("-pull-plan and -push are mutually exclusive; run pushers and pullers as separate VMs"))
		}
		st, err := puller.Run(prog, puller.Options{
			Client: plan.NewClient(*pullURL), Program: *benchName, Size: runArg,
			Rounds: *pullRounds, Every: *pullEvery, Iters: *pullIters,
			Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pull mode:   %s from %s\n", *benchName, *pullURL)
		fmt.Printf("rounds:      %d (%d iters each), polls %d, plan swaps %d\n",
			st.Rounds, *pullIters, st.Polls, st.Swaps)
		fmt.Printf("plan epoch:  %d (kill switch fired: %v)\n", st.Epoch, st.Killed)
		fmt.Printf("cycles/round: %d unoptimized -> %d final (%.1f%% faster)\n",
			st.BaseCycles, st.LastCycles, (float64(st.BaseCycles)/float64(st.LastCycles)-1)*100)
		return
	}

	// The VMs of a fleet must not sample in lock-step: two pushers on one
	// seed push the same graph twice. A pusher that was given no seed
	// takes one from its identity, which is random per process, and says
	// which, so that a failing run is replayed with -seed.
	var pusherID string
	if *pushURL != "" {
		pusherID = dcgstore.NewPusherID()
		seedGiven := false
		flag.Visit(func(f *flag.Flag) { seedGiven = seedGiven || f.Name == "seed" })
		if !seedGiven {
			*seed = seedOfPusher(pusherID)
			fmt.Fprintf(os.Stderr, "pusher %s: profiler seed %d (replay with -seed %d)\n", pusherID, *seed, *seed)
		}
	}

	// The perfect profile for accuracy scoring.
	perfect := profiler.NewExhaustive()
	{
		m := vm.New(prog)
		m.SetProfiler(perfect)
		if _, err := m.Run(runArg); err != nil {
			fatal(err)
		}
	}

	m := vm.New(prog)
	m.EpilogueYieldpoints = fl.EpilogueYieldpoints()
	var graph *profile.DCG
	var mainProf vm.Profiler
	var mc *mincover.Profiler
	name := *prof
	switch *prof {
	case "cbs", "timer":
		cfg := profiler.Config{Stride: *stride, SamplesPerTick: *samples, Flavour: fl, Seed: *seed}
		if *prof == "timer" {
			cfg = profiler.TimerOnly(fl)
			cfg.Seed = *seed
		}
		c := profiler.NewCBS(cfg)
		mainProf = c
		m.SetTimer(*timer)
		graph = c.Graph
		name = c.Name()
	case "whaley":
		w := profiler.NewWhaley()
		mainProf = w
		m.SetTimer(*timer)
		graph = w.Graph
	case "patching":
		p := profiler.NewPatching(len(prog.Methods), 100, 64)
		mainProf = p
		graph = p.Graph
	case "exhaustive":
		e := profiler.NewInstrumented()
		mainProf = e
		graph = e.Graph
	case "mincover":
		mc = mincover.New(prog)
		mainProf = mc
		graph = mc.Graph
	default:
		fatal(fmt.Errorf("unknown profiler %q", *prof))
	}

	var push *dcgstore.TickPusher
	if *pushURL != "" {
		client := dcgstore.NewClient(*pushURL)
		if *benchName != "" {
			// Suite benchmarks have a fleet-wide canonical identity:
			// stamp every push with (name, content version) so the daemon
			// aggregates this build into its own ledger, and register the
			// method/site manifest so carry-forward has fingerprints to
			// match against. Ad-hoc -file programs stay unstamped (they
			// land under the zero key). Manifest registration is
			// best-effort: an old daemon 404s, and the keyed pushes still
			// merge.
			client.Key = api.ProgramKey{Program: *benchName, Version: prog.Version()}
			if _, err := client.RegisterManifest(prog.BuildManifest(*benchName)); err != nil {
				fmt.Fprintf(os.Stderr, "manifest registration skipped: %v\n", err)
			}
		}
		push = dcgstore.NewTickPusher(client, pusherID, graph, *pushEvery)
		m.SetProfiler(mainProf, push)
	} else {
		m.SetProfiler(mainProf)
	}

	if _, err := m.Run(runArg); err != nil {
		fatal(err)
	}

	// Mincover recovers the unprobed remainder of the DCG before the
	// final flush, so the pushed increments sum to the complete graph.
	if mc != nil {
		if err := mc.Finalize(); err != nil {
			fatal(err)
		}
		c := mc.Cover
		fmt.Printf("mincover:  %d of %d call points probed (ratio %.2f), %d static edges\n",
			c.NumProbes(), c.NumPoints(), c.ProbeRatio(), len(c.Graph.Edges))
	}

	if push != nil {
		if err := push.Flush(); err != nil {
			fatal(fmt.Errorf("push to %s (%d increments undelivered): %w", *pushURL, push.Pending(), err))
		}
		fmt.Fprintf(os.Stderr, "pushed %d snapshot(s) to %s\n", push.Pushes(), *pushURL)
	}

	fmt.Printf("profiler:  %s (flavour %s)\n", name, fl)
	fmt.Printf("cycles:    %d (profiling %d, overhead %.3f%%)\n",
		m.Cycles, m.ProfilingCycles, m.Overhead()*100)
	fmt.Printf("calls:     %d; DCG edges: %d of %d (perfect)\n",
		m.Calls, graph.NumEdges(), perfect.Graph.NumEdges())
	if c, ok := mainProf.(*profiler.CBS); ok {
		fmt.Printf("sampler:   %d ticks: %.0f opened a window, %d coalesced; %d samples\n",
			c.Ticks, c.Graph.Windows(), c.Coalesced, c.SamplesTaken)
	}
	fmt.Printf("accuracy:  %.1f (overlap with exhaustive profile)\n",
		profile.Accuracy(graph, perfect.Graph))
	fmt.Println()

	if *saveProfile != "" {
		f, err := os.Create(*saveProfile)
		if err != nil {
			fatal(err)
		}
		if _, err := graph.WriteTo(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "profile written to %s\n", *saveProfile)
	}

	methodName := func(id int) string {
		if id >= 0 && id < len(prog.Methods) {
			return prog.Methods[id].Name
		}
		return fmt.Sprintf("m%d", id)
	}
	dump := graph.Dump(methodName, prog.SiteDescription)
	lines := 0
	for i := 0; i < len(dump); i++ {
		fmt.Print(string(dump[i]))
		if dump[i] == '\n' {
			lines++
			if lines > *top {
				fmt.Println("  ...")
				break
			}
		}
	}
}

// seedOfPusher derives a profiler seed from a pusher identity: FNV-1a
// of the ID, kept positive so it prints as it is typed back.
func seedOfPusher(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64() >> 1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbsvm:", err)
	os.Exit(1)
}

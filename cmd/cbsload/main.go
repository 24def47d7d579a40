// Command cbsload is the fleet-scale chaos load generator: it runs N
// in-process CBS-profiled pusher VMs and plan pullers against a real
// in-process cbsd daemon through a seeded fault-injecting transport
// (latency, dropped responses, connection resets, synthetic 5xx) with
// scheduled daemon kill/restart cycles, then verifies the end-to-end
// invariants — exactly-once ingest, monotone plan epochs, byte-identical
// restart recovery, no puller divergence — and emits a machine-readable
// report.
//
// The fault schedule is a pure function of -seed: two runs with the same
// seed produce byte-identical deterministic report sections, so any
// failure is reproducible from the seed printed at startup.
//
// Usage:
//
//	cbsload -vms 64 -seed 1 -faults all
//	cbsload -vms 16 -rounds 8 -restarts 2 -report soak.json
//	cbsload -vms 16 -leaves 4 -restarts 2   # federated: 4 leaves + 1 root
//	cbsload -vms 12 -profilers cbs,mincover # A/B mixed profile sources
//	cbsload -vms 8 -gen-seed 17 -gen-shape closureheavy  # generated workload
//
// With -leaves N the soak runs against a federated aggregation tree:
// the pusher fleet is spread round-robin over N leaf daemons that
// forward merged deltas into one root, restarts kill leaves instead of
// the (only) daemon, and the conservation invariant is checked
// fleet-wide against the root's aggregate.
//
// Exit status is 0 only when every invariant checker passed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gocbs/internal/fleetsim"
)

// splitCSV parses a comma-separated list, dropping empty elements so
// "" means nil (keep the all-CBS default fleet).
func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func main() {
	var (
		vms      = flag.Int("vms", 16, "number of pusher VMs")
		pullers  = flag.Int("pullers", 0, "number of plan-pulling VMs (0 = default 2)")
		leaves   = flag.Int("leaves", 0, "federated tree width: leaf daemons under one root (0 = single daemon)")
		rounds   = flag.Int("rounds", 6, "lockstep pusher rounds")
		iters    = flag.Int("iters", 2, "benchmark iterations per pusher per round")
		seed     = flag.Int64("seed", 1, "fleet seed (0 = pick one; the seed is always printed)")
		faultstr = flag.String("faults", "all", "faults to inject: all, none, or csv of latency,drop-response,reset,5xx")
		restarts = flag.Int("restarts", 1, "scheduled daemon kill/restart cycles")
		program  = flag.String("program", "compress", "benchmark program the fleet runs")
		genSeed  = flag.Int64("gen-seed", -1, "run a generated workload with this generator seed instead of a benchmark (-1 = off)")
		genSize  = flag.Int("gen-size", 3, "with -gen-seed: generator size knob")
		genShape = flag.String("gen-shape", "", "with -gen-seed: generator shape (megamorphic, phaseshift, deepvirt, closureheavy; empty = default mix)")
		profs    = flag.String("profilers", "", "csv of profile sources assigned round-robin across pushers: cbs, exhaustive, mincover (empty = all cbs)")
		stateDir = flag.String("state", "", "daemon state dir (default: fresh temp dir, removed on exit)")
		maxWait  = flag.Duration("max-latency", 0, "upper bound for injected latency faults (0 = default)")
		report   = flag.String("report", "", "write the JSON report to this file")
		verbose  = flag.Bool("v", false, "log fleet lifecycle events")
	)
	flag.Parse()

	faults, err := fleetsim.ParseFaults(*faultstr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbsload:", err)
		os.Exit(2)
	}
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "cbsload: "+format+"\n", args...)
		}
	}

	// Print the seed before running: a hung or crashed soak must still
	// be reproducible.
	topology := "single daemon"
	if *leaves > 0 {
		topology = fmt.Sprintf("%d leaves + 1 root", *leaves)
	}
	workload := *program
	if *genSeed >= 0 {
		shape := *genShape
		if shape == "" {
			shape = "default"
		}
		workload = fmt.Sprintf("generated %s (gen-seed %d, gen-size %d)", shape, *genSeed, *genSize)
		// Let fleetsim derive the synthetic program name from the
		// generator coordinates instead of the benchmark default.
		*program = ""
	}
	fmt.Printf("cbsload: %d vms, %s, %d rounds of %s, faults %s, %d restarts, seed %d\n",
		*vms, topology, *rounds, workload, faults, *restarts, *seed)

	rep, err := fleetsim.Run(fleetsim.Config{
		VMs:                *vms,
		Pullers:            *pullers,
		Leaves:             *leaves,
		Rounds:             *rounds,
		ItersPerRound:      *iters,
		Seed:               *seed,
		Faults:             faults,
		Restarts:           *restarts,
		Program:            *program,
		Profilers:          splitCSV(*profs),
		GeneratedWorkloads: *genSeed >= 0,
		GenSeed:            *genSeed,
		GenSize:            *genSize,
		GenShape:           *genShape,
		StateDir:           *stateDir,
		MaxLatency:         *maxWait,
		Logf:               logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbsload:", err)
		os.Exit(1)
	}

	fmt.Println(rep.Format())
	if *report != "" {
		if err := os.WriteFile(*report, rep.JSON(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cbsload: write report:", err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *report)
	}
	if !rep.AllPassed() {
		fmt.Fprintf(os.Stderr, "cbsload: INVARIANT FAILURE — reproduce with -seed %d\n", *seed)
		os.Exit(1)
	}
}

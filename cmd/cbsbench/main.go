// Command cbsbench regenerates the paper's tables and figures, and the
// supplementary studies, on the MJ VM substrate. What it can print is
// the experiment.Artifacts table, which `cbsbench -h` lists: pick one
// by kind and name (`-table 2a`, `-figure 5b`, `-study convergence`) or
// take them all with -all. -quick is a cheap single-seed run on a
// benchmark subset, -input picks small/large where applicable, and
// -benchmarks takes a comma separated subset of the suite.
//
// Experiments fan their independent jobs over -parallel workers
// (default: GOMAXPROCS); output is byte-identical at any setting.
// -progress renders a live meter on stderr. Only artifact text goes to
// stdout; status lines go to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"gocbs/internal/bench"
	"gocbs/internal/experiment"
	"gocbs/internal/runner"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with its edges injected, so the CLI contract — what
// runs, what goes to which stream, exit codes — is unit-testable.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// One selector flag per artifact kind, in table order.
	var kinds []string
	names := map[string][]string{}
	picked := map[string]*string{}
	for _, a := range experiment.Artifacts {
		if names[a.Kind] == nil {
			kinds = append(kinds, a.Kind)
		}
		names[a.Kind] = append(names[a.Kind], a.Name)
	}
	for _, k := range kinds {
		picked[k] = fs.String(k, "", "print one "+k+" of the list above, by name")
	}
	all := fs.Bool("all", false, "print every table, figure, and study")
	quick := fs.Bool("quick", false, "single seed and a four-benchmark subset")
	input := fs.String("input", "small", "input size for grids/figures/studies: small or large")
	benchList := fs.String("benchmarks", "", "comma-separated benchmark subset (default: whole suite)")
	fullGrid := fs.Bool("full", false, "use the paper's full samples-per-tick row set in table 2")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker count for experiment jobs; 1 = serial (same output either way)")
	progress := fs.Bool("progress", false, "render a live job/cycle/ETA meter on stderr")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: cbsbench [flags] -"+strings.Join(kinds, " NAME | -")+" NAME | -all")
		for _, a := range experiment.Artifacts {
			fmt.Fprintf(stderr, "  -%-6s %-12s %s\n", a.Kind, a.Name, a.Help)
		}
		fmt.Fprintln(stderr, "flags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var run []experiment.Artifact
	for _, a := range experiment.Artifacts {
		if *all || *picked[a.Kind] == a.Name {
			run = append(run, a)
		}
	}
	for _, k := range kinds {
		if v := *picked[k]; v != "" && !slices.Contains(names[k], v) {
			fmt.Fprintf(stderr, "cbsbench: unknown %s %q; valid: %s\n", k, v, strings.Join(names[k], ", "))
			return 2
		}
	}
	if *input != "small" && *input != "large" {
		fmt.Fprintf(stderr, "cbsbench: unknown input %q; valid: small, large\n", *input)
		return 2
	}
	if len(run) == 0 {
		fs.Usage()
		return 2
	}

	cfg, err := config(*quick, *fullGrid, *benchList, *parallel)
	if err != nil {
		fmt.Fprintln(stderr, "cbsbench:", err)
		return 1
	}
	if *progress {
		cfg.Progress = progressMeter(stderr)
	}
	for _, a := range run {
		label := a.Kind + " " + a.Name
		start := time.Now()
		text, err := a.Render(cfg, *input)
		if err != nil {
			fmt.Fprintf(stderr, "cbsbench: %s: %v\n", label, err)
			return 1
		}
		fmt.Fprintln(stdout, text)
		if *progress {
			fmt.Fprintln(stderr) // terminate the meter line
		}
		fmt.Fprintf(stderr, "[%s done in %v]\n", label, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// config builds the experiment configuration the flags describe.
// -quick replaces the whole Config, so every other flag (and, in
// realMain, -progress) is applied after it.
func config(quick, fullGrid bool, benchList string, parallel int) (experiment.Config, error) {
	cfg := experiment.DefaultConfig()
	subset := benchList
	if quick {
		cfg = experiment.QuickConfig()
		if subset == "" {
			subset = "compress,jess,javac,mtrt"
		}
	}
	if subset != "" {
		sub, err := bench.Subset(strings.Split(subset, ","))
		if err != nil {
			return cfg, err
		}
		cfg.Benchmarks = sub
	}
	if fullGrid {
		cfg.Samples = experiment.FullSamples
	}
	cfg.Parallel = parallel
	return cfg, nil
}

// progressMeter returns a runner progress hook that redraws one line
// on w per ~100 ms: jobs completed/total, modeled megacycles simulated,
// simulation rate, and ETA. Experiments run sequentially and the pool
// serializes hook calls, so the unsynchronized lastDraw is safe.
func progressMeter(w io.Writer) func(runner.Progress) {
	var lastDraw time.Time
	return func(p runner.Progress) {
		now := time.Now()
		if p.JobsDone < p.JobsTotal && now.Sub(lastDraw) < 100*time.Millisecond {
			return
		}
		lastDraw = now
		fmt.Fprintf(w, "\r[%d/%d jobs  %.0f Mcyc  %.1f Mcyc/s  ETA %v]   ",
			p.JobsDone, p.JobsTotal, p.Mcyc(), p.Rate(),
			p.ETA().Round(time.Second))
	}
}

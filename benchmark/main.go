// Command benchmark is the repo's one benchmark: five workloads that
// measure every layer of the collect-and-exploit loop from outside, by
// timing calls into the layers' public functions and the daemon's HTTP
// surface. See README.md for the workloads, the metrics and how to read
// the trace files; BENCHMARK.json at the repo root declares the contract.
//
//	go run ./benchmark --workload vm_bare --seed 1 --seconds 12 --trace 0
//	go run ./benchmark --smoke                 # all five, tiny sizing
//	go run ./benchmark --compare A.json B.json # apply the repeat tolerances
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one invocation's sizing. The zero value is not useful; run
// fills it from flags.
type config struct {
	workload string // "" runs all five
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string

	// corruptExpectation perturbs one reference result after set-up. It
	// is reachable only from the package's tests, which use it to prove
	// that a wrong output makes the command exit non-zero.
	corruptExpectation bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so tests can drive the whole
// command in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var compare, checkRepeat bool
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadList()+" (default: all five)")
	fs.Int64Var(&cfg.seed, "seed", 1, "derives CBS seeds and payload order")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "how long one workload measures")
	fs.IntVar(&trace, "trace", 0, "1 records spans, writes trace-<workload>.jsonl and reports the per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny sizing: 3 programs, 1 pass / 1 short window / 1 round")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for result, trace and daemon state files")
	fs.BoolVar(&compare, "compare", false, "compare two result files: --compare A.json B.json")
	fs.BoolVar(&checkRepeat, "check-repeat", false, "run twice at the same seed and compare the two result sets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	switch {
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark --compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "unexpected argument %q\n", fs.Arg(0))
		return 2
	case checkRepeat:
		return checkRepeatRuns(cfg, stdout, stderr)
	}
	_, code := execute(cfg, stdout, stderr)
	return code
}

// resultFile is what every run leaves in the out directory and what
// --compare reads: the provenance block plus one result per workload.
type resultFile struct {
	Provenance provenance         `json:"provenance"`
	Workloads  map[string]*result `json:"workloads"`
}

// result is one workload's outcome. With tracing off Metrics holds the
// end-to-end metrics, with tracing on the per-layer ones.
type result struct {
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Slices    int               `json:"slices"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the selected workloads, prints every metric by name,
// writes the result file, and prints the contract's JSON line last. The
// exit code is non-zero when any operation or check failed.
func execute(cfg config, stdout, stderr io.Writer) (*resultFile, int) {
	names := workloadNames
	if cfg.workload != "" {
		if workloads[cfg.workload] == nil {
			fmt.Fprintf(stderr, "unknown workload %q (have %s)\n", cfg.workload, workloadList())
			return nil, 2
		}
		names = []string{cfg.workload}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return nil, 1
	}
	start := time.Now()
	file := &resultFile{Workloads: map[string]*result{}}
	for _, name := range names {
		env := newEnv(cfg, name)
		if err := workloads[name](env); err != nil {
			// A workload that cannot complete is a failed operation, not a
			// crash: the result line still says what was attempted.
			env.fail("%s: %v", name, err)
		}
		res, err := env.finish()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return nil, 1
		}
		file.Workloads[name] = res
		printResult(stdout, name, res)
	}
	file.Provenance = newProvenance(cfg, file, start)
	path := filepath.Join(cfg.outDir, resultName(cfg))
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintln(stderr, err)
		return nil, 1
	}
	fmt.Fprintf(stdout, "# result file: %s\n", path)

	line, failed := contractLine(file, names)
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, 1
	}
	fmt.Fprintln(stdout, string(out))
	if failed > 0 {
		return file, 1
	}
	return file, 0
}

func resultName(cfg config) string {
	kind := "e2e"
	if cfg.trace {
		kind = "trace"
	}
	if cfg.workload == "" {
		return fmt.Sprintf("result-all-%s.json", kind)
	}
	return fmt.Sprintf("result-%s-%s.json", cfg.workload, kind)
}

// contractLine is the last line of standard output. For one workload its
// metrics carry the declared names; for a run of all five each name is
// prefixed with its workload.
func contractLine(file *resultFile, names []string) (map[string]any, int) {
	metrics := map[string]metric{}
	attempted, failed := 0, 0
	for _, name := range names {
		res := file.Workloads[name]
		attempted += res.Attempted
		failed += res.Failed
		for k, m := range res.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			metrics[k] = m
		}
	}
	return map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}, failed
}

func printResult(w io.Writer, name string, res *result) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "# %s (%s): %d slices, %d operations attempted, %d failed\n",
		name, kind, res.Slices, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "#   FAILED: %s\n", f)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%-14s %-40s %16.6g %s\n", name, k, m.Value, m.Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

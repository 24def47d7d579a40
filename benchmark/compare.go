package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// tolerance is how far run B may be worse than run A, for the same code
// and seed, before --compare calls it an offender: a wall-clock
// end-to-end metric gets its repeat tolerance (tighter than the bound the
// driver enforces, which has to hold in the box's noisiest hours), a
// modelled metric or exact count must be equal, and a wall-clock per-layer
// metric is only shown.
func tolerance(d decl, isEndToEnd bool) (tol float64, exact, gated bool) {
	if isEndToEnd {
		return d.repeat, d.exact, true
	}
	return 0, d.exact, d.exact
}

// worsening is by how much b is worse than a, as a share of a.
func worsening(d decl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults prints one row per workload and metric the two result
// sets share — both values, the ratio B/A and its base A — and returns the
// first offender, or "" when B repeats A within the tolerances.
func compareResults(a, b *resultFile, w io.Writer) string {
	offender := ""
	flag := func(format string, args ...any) {
		if offender == "" {
			offender = fmt.Sprintf(format, args...)
		}
	}
	fmt.Fprintf(w, "%-13s %-38s %16s %16s %9s  %s\n", "workload", "metric", "A", "B", "B/A", "verdict (ratio base: A)")
	for _, name := range workloadNames {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			flag("%s: %d and %d failed operations", name, ra.Failed, rb.Failed)
		}
		keys := make([]string, 0, len(ra.Metrics))
		for k := range ra.Metrics {
			if _, ok := rb.Metrics[k]; ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			va, vb := ra.Metrics[k].Value, rb.Metrics[k].Value
			d, isEndToEnd, _ := findDecl(k)
			tol, exact, gated := tolerance(d, isEndToEnd)
			verdict := "shown only"
			switch {
			case exact && va != vb:
				verdict = "OFFENDER: must repeat exactly"
				flag("%s %s: %v then %v, must repeat exactly", name, k, va, vb)
			case exact:
				verdict = "exact"
			case gated && worsening(d, va, vb) > tol:
				verdict = fmt.Sprintf("OFFENDER: %.1f%% worse, tolerance %.0f%%", worsening(d, va, vb)*100, tol*100)
				flag("%s %s: %.6g then %.6g (%.1f%% worse than base %.6g, tolerance %.0f%%)",
					name, k, va, vb, worsening(d, va, vb)*100, va, tol*100)
			case gated:
				verdict = fmt.Sprintf("within %.0f%%", tol*100)
			}
			ratio := 0.0
			if va != 0 {
				ratio = vb / va
			}
			fmt.Fprintf(w, "%-13s %-38s %16.6g %16.6g %9.4f  %s\n", name, k, va, vb, ratio, verdict)
		}
	}
	return offender
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return verdict(compareResults(a, b, stdout), stdout)
}

func verdict(offender string, stdout io.Writer) int {
	if offender != "" {
		fmt.Fprintf(stdout, "FIRST OFFENDER: %s\n", offender)
		return 1
	}
	fmt.Fprintln(stdout, "the two result sets agree within the tolerances")
	return 0
}

// checkRepeatRuns runs the selected workloads twice with the same
// arguments and compares the two result sets.
func checkRepeatRuns(cfg config, stdout, stderr io.Writer) int {
	a, code := execute(cfg, stdout, stderr)
	if code != 0 {
		return code
	}
	b, code := execute(cfg, stdout, stderr)
	if code != 0 {
		return code
	}
	return verdict(compareResults(a, b, stdout), stdout)
}

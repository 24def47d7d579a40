// Command dcgdiff compares two saved dynamic call graph profiles (as
// written by `cbsvm -save`): it reports the overlap metric between
// them and the edges responsible for the largest disagreement —
// useful for debugging profiler configurations against each other or
// against an exhaustive profile.
//
// Profiles are read in the DCGB wire format, which is what cbsvm -save,
// cbsd /v1/snapshot and the daemon's checkpoints write.
//
//	cbsvm -bench jess -profiler timer -save timer.dcg
//	cbsvm -bench jess -save cbs.dcg
//	dcgdiff timer.dcg cbs.dcg
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"gocbs/internal/profile"
)

func main() {
	top := flag.Int("top", 15, "number of most-divergent edges to print")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dcgdiff a.dcg b.dcg")
		os.Exit(2)
	}
	a, err := loadProfile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcgdiff:", err)
		os.Exit(1)
	}
	b, err := loadProfile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcgdiff:", err)
		os.Exit(1)
	}

	fmt.Printf("%-24s %s\n", flag.Arg(0), a.Summary())
	fmt.Printf("%-24s %s\n", flag.Arg(1), b.Summary())
	fmt.Printf("overlap: %.2f / 100\n\n", profile.Overlap(a, b))

	type diff struct {
		e      profile.Edge
		pa, pb float64
	}
	seen := map[profile.Edge]bool{}
	var diffs []diff
	for _, e := range a.Edges() {
		seen[e] = true
		diffs = append(diffs, diff{e, a.Percent(e), b.Percent(e)})
	}
	for _, e := range b.Edges() {
		if !seen[e] {
			diffs = append(diffs, diff{e, 0, b.Percent(e)})
		}
	}
	sort.Slice(diffs, func(i, j int) bool {
		di := abs(diffs[i].pa - diffs[i].pb)
		dj := abs(diffs[j].pa - diffs[j].pb)
		if di != dj {
			return di > dj
		}
		return diffs[i].e.Site < diffs[j].e.Site
	})
	fmt.Printf("%-30s %10s %10s %10s\n", "edge", "A %", "B %", "|Δ|")
	for i, d := range diffs {
		if i >= *top {
			fmt.Printf("  ... %d more\n", len(diffs)-i)
			break
		}
		fmt.Printf("%-30s %10.3f %10.3f %10.3f\n", d.e.String(), d.pa, d.pb, abs(d.pa-d.pb))
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// loadProfile reads a serialized DCG, naming the file in any error.
func loadProfile(path string) (*profile.DCG, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := profile.ReadDCG(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// Command tier1time reads `go test -json` from stdin and prints where the
// time went: the whole run's wall time, each package's, slowest first,
// then the ten slowest top-level tests. It exits 1 when any package or
// test failed, or when no package reported, so a pipeline that ends in
// it fails with the tests. `make tier1-time` runs
//
//	go test -json -count=1 ./... | go run ./internal/tier1time
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// event is the part of a test2json record this command reads.
type event struct {
	Action  string
	Package string
	Test    string
	Elapsed float64 // seconds, on pass, fail and skip
	Time    time.Time
}

type timing struct {
	name    string
	seconds float64
	failed  bool
}

func main() {
	failed, err := report(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tier1time:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// report prints the package and test tables for the events read from r
// and says whether anything failed.
func report(r io.Reader, w io.Writer) (failed bool, err error) {
	var pkgs, tests []timing
	var first, last time.Time
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var ev event
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		if first.IsZero() {
			first = ev.Time
		}
		last = ev.Time
		if ev.Action != "pass" && ev.Action != "fail" {
			continue
		}
		t := timing{name: ev.Package, seconds: ev.Elapsed, failed: ev.Action == "fail"}
		failed = failed || t.failed
		switch {
		case ev.Test == "":
			pkgs = append(pkgs, t)
		case !strings.Contains(ev.Test, "/"): // a subtest's time is in its parent's
			t.name += " " + ev.Test
			tests = append(tests, t)
		}
	}
	if err := sc.Err(); err != nil {
		return failed, err
	}
	if len(pkgs) == 0 {
		return true, fmt.Errorf("no package reported a result")
	}
	fmt.Fprintf(w, "wall time, first event to last: %.1fs\n", last.Sub(first).Seconds())
	fmt.Fprintln(w, "package wall time:")
	top(w, pkgs, len(pkgs))
	fmt.Fprintln(w, "ten slowest tests:")
	top(w, tests, 10)
	return failed, nil
}

// top writes the n longest timings, slowest first.
func top(w io.Writer, ts []timing, n int) {
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].seconds > ts[j].seconds })
	for _, t := range ts[:min(n, len(ts))] {
		mark := ""
		if t.failed {
			mark = "  FAIL"
		}
		fmt.Fprintf(w, "%8.2fs  %s%s\n", t.seconds, t.name, mark)
	}
}

package plan_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire_bytes.txt from this encoder")

const wireGolden = "testdata/wire_bytes.txt"

// TestWireBytesPinned holds the plan encoder to the bytes it wrote at
// the commit before it was touched: for every suite program, the
// new-linear plan compiled from the exhaustive DCG of one small-input
// run of main (the graphs internal/profile's test of the same name
// pins), epoch 1, no prior.
func TestWireBytesPinned(t *testing.T) {
	var lines []string
	for _, b := range bench.All() {
		prog := jitProgram(t, b.Name)
		ex := profiler.NewExhaustive()
		m := vm.New(prog.Clone())
		m.SetProfiler(ex)
		if _, err := m.Run(b.Small); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		enc := compilePlan(t, b.Name, prog, ex.Graph, nil).Encode()
		lines = append(lines, fmt.Sprintf("%s %d %x", b.Name, len(enc), sha256.Sum256(enc)))
	}
	text := strings.Join(lines, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wireGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden at a commit whose encoder is the reference)", err)
	}
	if text == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, line := range lines {
		if i >= len(wantLines) || wantLines[i] != line {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("plan wire bytes moved:\n got  %s\n want %s", line, w)
		}
	}
	if len(wantLines) > len(lines) {
		t.Errorf("%d pinned lines have no plan", len(wantLines)-len(lines))
	}
}

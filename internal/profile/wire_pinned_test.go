package profile_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/profile"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire_bytes.txt from this encoder")

const wireGolden = "testdata/wire_bytes.txt"

// TestWireBytesPinned holds the DCG encoder to the bytes it wrote at
// the commit before it was rewritten, as regenerated at the one version
// bump since (v2: the window count in the header): the exhaustive DCG of
// every suite program (JIT-only, small input, one run of main) and a
// hand-built graph with the values an encoder can get wrong — negative
// ids, a sub-normal weight, a weight of 2^60, a decayed window count.
// internal/plan's test of the same name compiles its plans from the same
// graphs.
func TestWireBytesPinned(t *testing.T) {
	var lines []string
	pin := func(name string, g *profile.DCG) {
		var buf bytes.Buffer
		n, err := g.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("%s: WriteTo reported %d bytes, wrote %d", name, n, buf.Len())
		}
		lines = append(lines, fmt.Sprintf("%s %d %x", name, buf.Len(), sha256.Sum256(buf.Bytes())))
	}
	for _, b := range bench.All() {
		pin(b.Name, suiteGraph(t, b, false))
	}
	hand := profile.NewDCG()
	hand.AddSample(profile.Edge{Caller: -1, Site: 0, Callee: 9}, 1)
	hand.AddSample(profile.Edge{Caller: -7, Site: -3, Callee: -2}, 5e-324)
	hand.AddSample(profile.Edge{Caller: 3, Site: math.MaxInt32, Callee: 4}, 1<<60)
	hand.AddSample(profile.Edge{Caller: 3, Site: 2, Callee: 4}, 4.25)
	hand.SetWindows(2.5)
	pin("hand", hand)
	pin("empty", profile.NewDCG())
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
			t.Errorf("wire bytes moved:\n got  %s\n want %s", line, w)
		}
	}
	if len(wantLines) > len(lines) {
		t.Errorf("%d pinned lines have no graph", len(wantLines)-len(lines))
	}
}

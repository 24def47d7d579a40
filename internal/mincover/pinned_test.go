package mincover

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/opt"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/cfg_digests.txt from this classifyPCs and MinCover")

const cfgGolden = "testdata/cfg_digests.txt"

// cfgDigest hashes what mincover derives from a program's control flow:
// the class of every pc of every method, with anchors and without, and
// the probe set chosen over them, in the graph's canonical point order.
func cfgDigest(p *bytecode.Program) string {
	h := fnv.New64a()
	for _, m := range p.Methods {
		fmt.Fprintf(h, "m%d:", m.ID)
		for _, anchors := range []bool{true, false} {
			for _, c := range classifyPCs(m.Code, anchors) {
				h.Write([]byte{byte(c)})
			}
			h.Write([]byte{0xff})
		}
	}
	classes := h.Sum64()
	h.Reset()
	c := Compute(p)
	for _, pt := range c.Graph.Points {
		fmt.Fprintf(h, "%d/%d=%v;", pt.Method, pt.Site, c.Probed[pt])
	}
	return fmt.Sprintf("classes %016x probes %016x (%d of %d)", classes, h.Sum64(), c.NumProbes(), c.NumPoints())
}

// TestCFGDigestsPinned holds classifyPCs and the probe set to what they
// were at the commit before the leader and reachability scans moved
// into bytecode: the 15 suite programs plain, inlined by the static
// rule of the new-linear policy (guards, fallbacks and jumps over
// spliced bodies) and inlined then fused, against
// testdata/cfg_digests.txt.
func TestCFGDigestsPinned(t *testing.T) {
	var got []string
	for _, b := range bench.All() {
		for _, shape := range []string{"plain", "inlined", "inlined+fused"} {
			p, err := b.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if shape != "plain" {
				if _, err := inline.Optimize(p, inline.NewNewLinear(), nil, inline.DefaultOptions()); err != nil {
					t.Fatal(err)
				}
			}
			if shape == "inlined+fused" {
				if _, err := opt.FuseProgram(p); err != nil {
					t.Fatal(err)
				}
			}
			got = append(got, fmt.Sprintf("%s/%s %s", b.Name, shape, cfgDigest(p)))
		}
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cfgGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(cfgGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden at a commit whose classifyPCs is the reference)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%d pinned lines, %d programs", len(wantLines), len(got))
	}
	for i, line := range got {
		if wantLines[i] != line {
			t.Errorf("cfg digest moved:\n got  %s\n want %s", line, wantLines[i])
		}
	}
}

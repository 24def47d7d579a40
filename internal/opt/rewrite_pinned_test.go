package opt

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/mj"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/rewritten_programs.txt from these rewriters")

const rewrittenGolden = "testdata/rewritten_programs.txt"

// rewriteMeta hashes what Program.Version leaves out of a rewritten
// method and every later stage reads: the size the inlining heuristics
// see, the frame the VM sizes, and the trivial mark.
func rewriteMeta(p *bytecode.Program) string {
	h := fnv.New64a()
	for _, m := range p.Methods {
		fmt.Fprintf(h, "%d %d %d %d %v;", m.ID, m.Size, m.NLocals, m.MaxStack, m.Trivial)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinnedRewrites are the pass orders the repository runs somewhere: the
// three inlining policies, the adaptive system's inline-then-cleanup,
// the benchmark's fusion, and all three in the one order that was legal
// when the golden file was written.
var pinnedRewrites = []struct {
	name  string
	apply func(p *bytecode.Program, g *profile.DCG) error
}{
	{"trivial", func(p *bytecode.Program, _ *profile.DCG) error {
		_, err := inline.Optimize(p, inline.Trivial{}, nil, inline.DefaultOptions())
		return err
	}},
	{"oldjikes", func(p *bytecode.Program, g *profile.DCG) error {
		_, err := inline.Optimize(p, inline.NewOldJikes(), g, inline.DefaultOptions())
		return err
	}},
	{"newlinear", func(p *bytecode.Program, g *profile.DCG) error {
		_, err := inline.Optimize(p, inline.NewNewLinear(), g, inline.DefaultOptions())
		return err
	}},
	{"newlinear+cleanup", func(p *bytecode.Program, g *profile.DCG) error {
		if _, err := inline.Optimize(p, inline.NewNewLinear(), g, inline.DefaultOptions()); err != nil {
			return err
		}
		_, err := CleanupProgram(p)
		return err
	}},
	{"fuse", func(p *bytecode.Program, _ *profile.DCG) error {
		_, err := FuseProgram(p)
		return err
	}},
	{"newlinear+cleanup+fuse", func(p *bytecode.Program, g *profile.DCG) error {
		if _, err := inline.Optimize(p, inline.NewNewLinear(), g, inline.DefaultOptions()); err != nil {
			return err
		}
		if _, err := CleanupProgram(p); err != nil {
			return err
		}
		_, err := FuseProgram(p)
		return err
	}},
}

// pinnedSubjects are the programs the rewriters are pinned on: the 15
// suite programs at their small input, and ten of the generated gate's
// programs (mincover/gate_test.go draws them the same way), two per
// shape, plain and workload-protocol alternating.
func pinnedSubjects() []pinnedSubject {
	var out []pinnedSubject
	for _, b := range bench.All() {
		out = append(out, pinnedSubject{b.Name, b.Source, b.Small})
	}
	shapes := mj.Shapes()
	for i := 0; i < 10; i++ {
		shape, size := shapes[i%len(shapes)], 2+i%3
		src := mj.GenerateShaped(int64(i), size, shape)
		if i%2 == 1 {
			src = mj.GenerateWorkload(int64(i), size, shape)
		}
		out = append(out, pinnedSubject{fmt.Sprintf("gen%02d", i), src, int64(i*13%89 + 1)})
	}
	return out
}

type pinnedSubject struct {
	name, src string
	arg       int64
}

// TestRewrittenProgramsPinned holds every rewriter to the bytes it
// produced at the commit before the three of them were moved onto one
// relayout: every subject through each pass order above, the
// profile-directed ones on the exhaustive DCG of one run, each result's
// content hash (and a hash of the method fields the content hash leaves
// out) against testdata/rewritten_programs.txt.
func TestRewrittenProgramsPinned(t *testing.T) {
	subjects := pinnedSubjects()
	got := make([]string, len(subjects)*len(pinnedRewrites))
	t.Run("programs", func(t *testing.T) {
		for i, s := range subjects {
			i, s := i, s
			t.Run(s.name, func(t *testing.T) {
				t.Parallel()
				ex := profiler.NewExhaustive()
				diffRun(t, compileMJ(t, s.src), s.arg, ex, 0)
				for j, rw := range pinnedRewrites {
					p := compileMJ(t, s.src)
					if err := rw.apply(p, ex.Graph); err != nil {
						t.Fatalf("%s: %v", rw.name, err)
					}
					got[i*len(pinnedRewrites)+j] = fmt.Sprintf("%s/%s %s %s", s.name, rw.name, p.Version(), rewriteMeta(p))
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	sort.Strings(got)
	text := strings.Join(got, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(rewrittenGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(rewrittenGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden at a commit whose rewriters are the reference)", err)
	}
	if text == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, line := range got {
		if i >= len(wantLines) || wantLines[i] != line {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("rewritten program moved:\n got  %s\n want %s", line, w)
		}
	}
	if len(wantLines) > len(got) {
		t.Errorf("%d pinned lines have no program", len(wantLines)-len(got))
	}
}

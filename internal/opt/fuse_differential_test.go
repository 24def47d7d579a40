package opt

import (
	"bytes"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/mj"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// diffTimerPeriod mirrors experiment.DefaultTimerPeriod without
// importing the experiment package (which would cycle through opt via
// the adaptive recompiler).
const diffTimerPeriod = 3_000_000

// diffRun executes prog's entry on size under the given profiler (nil
// for bare) and returns the VM for inspection.
func diffRun(t *testing.T, prog *bytecode.Program, size int64, p vm.Profiler, timer uint64) *vm.VM {
	t.Helper()
	m := vm.New(prog)
	m.MaxSteps = 4_000_000_000
	if p != nil {
		m.SetProfiler(p)
	}
	if timer > 0 {
		m.SetTimer(timer)
	}
	if _, err := m.Run(size); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

// dcgBytes serializes a DCG canonically, so byte equality is graph
// equality.
func dcgBytes(t *testing.T, g *profile.DCG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refResult runs src's main under the reference AST interpreter, which
// shares nothing with the bytecode pipeline but the parser.
func refResult(t *testing.T, src string, arg int64) int64 {
	t.Helper()
	toks, err := mj.Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	ast, err := mj.Parse(toks)
	if err != nil {
		t.Fatal(err)
	}
	if err := mj.Check(ast); err != nil {
		t.Fatal(err)
	}
	r, err := mj.NewRefInterp(ast, 1<<40).CallFunction("main", arg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return r
}

func fusedTwin(t *testing.T, b *bench.Benchmark) (plain, fused *bytecode.Program) {
	t.Helper()
	plain, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fused, err = b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	st, err := FuseProgram(fused)
	if err != nil {
		t.Fatal(err)
	}
	if st.Removed == 0 {
		t.Fatalf("%s: fusion found nothing to fuse", b.Name)
	}
	return plain, fused
}

// TestFuseDifferentialSuite runs every benchmark of the suite fused and
// unfused under three observers — bare, exhaustive, and a timed CBS
// profiler — and requires byte-identical outputs, identical modeled
// cycle counts, and byte-identical DCGs. This is the gate every
// superinstruction must pass before it may ship: if fusion perturbs
// anything a profiler can see, one of these comparisons breaks.
func TestFuseDifferentialSuite(t *testing.T) {
	suite := bench.All()
	if len(suite) != 15 {
		t.Fatalf("suite has %d benchmarks, want 15", len(suite))
	}
	for _, b := range suite {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			size := b.Small
			plain, fused := fusedTwin(t, b)
			want := refResult(t, b.Source, size)

			// Bare: result, output stream, and modeled cycles.
			mp := diffRun(t, plain, size, nil, 0)
			mf := diffRun(t, fused, size, nil, 0)
			if !eqInt64s(mp.Output, mf.Output) {
				t.Fatalf("bare output differs (%d vs %d values)", len(mp.Output), len(mf.Output))
			}
			if mp.Cycles != mf.Cycles {
				t.Fatalf("bare cycles differ: unfused %d, fused %d", mp.Cycles, mf.Cycles)
			}
			if mp.Calls != mf.Calls {
				t.Fatalf("dynamic calls differ: unfused %d, fused %d", mp.Calls, mf.Calls)
			}
			if mf.Instrs >= mp.Instrs {
				t.Errorf("fused executed %d instrs vs %d unfused; fusion had no dynamic effect", mf.Instrs, mp.Instrs)
			}

			// Exhaustive: the ground-truth DCG must be byte-identical.
			ep, ef := profiler.NewExhaustive(), profiler.NewExhaustive()
			diffRun(t, plain, size, ep, 0)
			diffRun(t, fused, size, ef, 0)
			if !bytes.Equal(dcgBytes(t, ep.Graph), dcgBytes(t, ef.Graph)) {
				t.Fatal("exhaustive DCG differs between fused and unfused execution")
			}

			// CBS with a live timer: sampling depends on the exact cycle
			// trajectory, so identical graphs here prove fusion preserves
			// timer phase and yieldpoint placement, not just results.
			for _, fl := range []profiler.Flavour{profiler.FlavourRVM, profiler.FlavourJ9} {
				cfg := profiler.Config{Stride: 3, SamplesPerTick: 16, Flavour: fl, Seed: 7}
				cp, cf := profiler.NewCBS(cfg), profiler.NewCBS(cfg)
				vp, vf := vm.New(plain), vm.New(fused)
				vp.MaxSteps, vf.MaxSteps = 4_000_000_000, 4_000_000_000
				if fl == profiler.FlavourJ9 {
					vp.EpilogueYieldpoints = false
					vf.EpilogueYieldpoints = false
				}
				vp.SetProfiler(cp)
				vf.SetProfiler(cf)
				vp.SetTimer(diffTimerPeriod)
				vf.SetTimer(diffTimerPeriod)
				if _, err := vp.Run(size); err != nil {
					t.Fatal(err)
				}
				if _, err := vf.Run(size); err != nil {
					t.Fatal(err)
				}
				if vp.Cycles != vf.Cycles || vp.ProfilingCycles != vf.ProfilingCycles {
					t.Fatalf("%v: cycles differ: unfused %d/%d, fused %d/%d",
						fl, vp.Cycles, vp.ProfilingCycles, vf.Cycles, vf.ProfilingCycles)
				}
				if cp.SamplesTaken != cf.SamplesTaken {
					t.Fatalf("%v: samples differ: unfused %d, fused %d", fl, cp.SamplesTaken, cf.SamplesTaken)
				}
				if !bytes.Equal(dcgBytes(t, cp.Graph), dcgBytes(t, cf.Graph)) {
					t.Fatalf("%v: CBS DCG differs between fused and unfused execution", fl)
				}
			}

			// Every order the three rewriters can run in — the three the
			// generated gate runs (mincover/gate_test.go) and the rest of
			// the permutations — computes what the plain program computes.
			// The inliner is the old Jikes policy on the exhaustive DCG:
			// guarded virtual inlines as well as static ones.
			for _, order := range passOrders {
				p, err := b.Compile()
				if err != nil {
					t.Fatal(err)
				}
				for _, pass := range strings.Split(order, "+") {
					switch pass {
					case "inlined":
						_, err = inline.Optimize(p, inline.NewOldJikes(), ep.Graph, inline.DefaultOptions())
					case "cleaned":
						_, err = CleanupProgram(p)
					case "fused":
						_, err = FuseProgram(p)
					}
					if err != nil {
						t.Fatalf("%s: %s: %v", order, pass, err)
					}
				}
				mo := vm.New(p)
				mo.MaxSteps = 4_000_000_000
				got, err := mo.Run(size)
				if err != nil {
					t.Fatalf("%s: run: %v", order, err)
				}
				if got.I != want || !eqInt64s(mo.Output, mp.Output) {
					t.Fatalf("%s: main returned %d with %d outputs, the reference interpreter %d with %d", order, got.I, len(mo.Output), want, len(mp.Output))
				}
			}
		})
	}
}

// passOrders: the generated gate's three, then the other permutations.
var passOrders = []string{
	"fused+inlined", "inlined+fused+inlined", "inlined+cleaned+fused",
	"inlined+fused+cleaned", "fused+inlined+cleaned", "fused+cleaned+inlined",
	"cleaned+inlined+fused", "cleaned+fused+inlined",
}

// TestFuseCandidateTable exercises each superinstruction candidate in
// isolation: a program tailored to the pattern, executed fused and
// unfused, asserting identical outputs and identical exhaustive edge
// weights.
func TestFuseCandidateTable(t *testing.T) {
	cases := []struct {
		name string
		op   bytecode.Opcode
		src  string
	}{
		{"inclocal", bytecode.OpIncLocal, `
			int main(int n) {
				int acc = 0;
				for (int i = 0; i < n; i = i + 1) { acc = acc + 3; }
				return acc;
			}`},
		{"jumpcmp", bytecode.OpJumpCmp, `
			int main(int n) {
				int hits = 0;
				for (int i = 0; i < n; i = i + 1) {
					if (i > 10) { hits = hits + 1; }
					if (i == 20) { hits = hits + 100; }
				}
				return hits;
			}`},
		{"loadload", bytecode.OpLoadLoad, `
			int f(int a, int b) { return a * b + a - b; }
			int main(int n) {
				int acc = 0;
				for (int i = 0; i < n; i = i + 1) { acc = acc + f(i, acc); }
				return acc;
			}`},
		{"loadconst", bytecode.OpLoadConst, `
			int main(int n) {
				int acc = 1;
				for (int i = 0; i < n; i = i + 1) { acc = acc * 3 % 1000003; }
				return acc;
			}`},
		{"addconst", bytecode.OpAddConst, `
			int main(int n) {
				int acc = 0;
				for (int i = 0; i < n; i = i + 1) { acc = (acc * 2 + 7) % 65537; }
				return acc;
			}`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plain := compileMJ(t, tc.src)
			fused := compileMJ(t, tc.src)
			st, err := FuseProgram(fused)
			if err != nil {
				t.Fatal(err)
			}
			if st.Fused[tc.op] == 0 {
				t.Fatalf("pattern did not produce %v:\n%s", tc.op, bytecode.DisasmProgram(fused))
			}
			ep, ef := profiler.NewExhaustive(), profiler.NewExhaustive()
			mp := diffRun(t, plain, 64, ep, 0)
			mf := diffRun(t, fused, 64, ef, 0)
			if !eqInt64s(mp.Output, mf.Output) {
				t.Fatal("output differs")
			}
			if mp.Cycles != mf.Cycles {
				t.Fatalf("cycles differ: %d vs %d", mp.Cycles, mf.Cycles)
			}
			if !bytes.Equal(dcgBytes(t, ep.Graph), dcgBytes(t, ef.Graph)) {
				t.Fatal("DCG edge weights differ")
			}
		})
	}
}

func eqInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

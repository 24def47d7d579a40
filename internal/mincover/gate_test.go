package mincover

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/mj"
	"gocbs/internal/opt"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// gateTimerPeriod mirrors experiment.DefaultTimerPeriod without
// importing the experiment package.
const gateTimerPeriod = 3_000_000

// gateRef runs src's main under the reference AST interpreter.
func gateRef(t *testing.T, label, src string, arg int64) (int64, []int64) {
	t.Helper()
	toks, err := mj.Lex(src)
	if err != nil {
		t.Fatalf("%s: lex: %v\n%s", label, err, src)
	}
	ast, err := mj.Parse(toks)
	if err != nil {
		t.Fatalf("%s: parse: %v\n%s", label, err, src)
	}
	if err := mj.Check(ast); err != nil {
		t.Fatalf("%s: check: %v\n%s", label, err, src)
	}
	in := mj.NewRefInterp(ast, 50_000_000)
	r, err := in.CallFunction("main", arg)
	if err != nil {
		t.Fatalf("%s: reference run: %v\n%s", label, err, src)
	}
	return r, in.Output
}

// gateRun executes prog under p (nil for bare) and compares result and
// output against the reference. Divergences report the label (seed,
// shape, variant, observer) and the full generated source.
func gateRun(t *testing.T, label, src string, prog *bytecode.Program, arg int64, p vm.Profiler, timer uint64, wantR int64, wantO []int64) {
	t.Helper()
	m := vm.New(prog)
	m.MaxSteps = 4_000_000_000
	if p != nil {
		m.SetProfiler(p)
	}
	if timer > 0 {
		m.SetTimer(timer)
	}
	v, err := m.Run(arg)
	if err != nil {
		t.Fatalf("%s: vm run: %v\n%s", label, err, src)
	}
	if v.I != wantR {
		t.Fatalf("%s: result %d, reference %d\n%s", label, v.I, wantR, src)
	}
	if len(m.Output) != len(wantO) {
		t.Fatalf("%s: output length %d, reference %d\n%s", label, len(m.Output), len(wantO), src)
	}
	for i := range wantO {
		if m.Output[i] != wantO[i] {
			t.Fatalf("%s: output[%d] = %d, reference %d\n%s", label, i, m.Output[i], wantO[i], src)
		}
	}
}

// gatePasses are the rewriters a variant's name spells out, in order.
var gatePasses = map[string]func(*bytecode.Program) error{
	"inlined": func(p *bytecode.Program) error {
		_, err := inline.Optimize(p, inline.Trivial{}, nil, inline.DefaultOptions())
		return err
	},
	"cleaned": func(p *bytecode.Program) error { _, err := opt.CleanupProgram(p); return err },
	"fused":   func(p *bytecode.Program) error { _, err := opt.FuseProgram(p); return err },
}

// gateVariants compiles src as it is and through each pass order the
// rewriters must compose in: the two single passes, and three orders
// that put the inliner behind fusion, fusion between two inlining
// rounds, and cleanup between inlining and fusion. Each variant is an
// independent compile, since every rewrite mutates in place.
func gateVariants(t *testing.T, label, src string) map[string]*bytecode.Program {
	t.Helper()
	out := map[string]*bytecode.Program{}
	for _, name := range []string{"plain", "inlined", "fused", "fused+inlined", "inlined+fused+inlined", "inlined+cleaned+fused"} {
		p, err := mj.Compile(src)
		if err != nil {
			t.Fatalf("%s: compile: %v\n%s", label, err, src)
		}
		for _, pass := range strings.Split(name, "+") {
			if pass == "plain" {
				continue
			}
			if err := gatePasses[pass](p); err != nil {
				t.Fatalf("%s: variant %s, %s: %v\n%s", label, name, pass, err, src)
			}
		}
		out[name] = p
	}
	return out
}

// TestGeneratedDifferentialGate is the gate every generated program
// passes before the generator may ship: across ≥50 seeds cycling
// through every shape (half plain programs, half workload-protocol
// programs), each of gateVariants' programs must match the reference
// interpreter's result and output under each of {bare, exhaustive,
// cbs, mincover} observers, exhaustive and mincover must agree
// byte-for-byte on the canonical DCG, and mincover must never observe
// an edge outside its static graph.
func TestGeneratedDifferentialGate(t *testing.T) {
	n := 50
	if testing.Short() {
		n = 10
	}
	shapes := mj.Shapes()
	for i := 0; i < n; i++ {
		i := i
		t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) {
			t.Parallel()
			seed := int64(i)
			shape := shapes[i%len(shapes)]
			size := 2 + i%3
			var src string
			if i%2 == 0 {
				src = mj.GenerateShaped(seed, size, shape)
			} else {
				src = mj.GenerateWorkload(seed, size, shape)
			}
			arg := int64(i*13%89 + 1)
			label := fmt.Sprintf("seed=%d shape=%q size=%d", seed, shape, size)

			wantR, wantO := gateRef(t, label, src, arg)
			for name, prog := range gateVariants(t, label, src) {
				vl := label + " variant=" + name
				gateRun(t, vl+" bare", src, prog, arg, nil, 0, wantR, wantO)

				ex := profiler.NewExhaustive()
				gateRun(t, vl+" exhaustive", src, prog, arg, ex, 0, wantR, wantO)

				cbs := profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Flavour: profiler.FlavourRVM, Seed: 7})
				gateRun(t, vl+" cbs", src, prog, arg, cbs, gateTimerPeriod, wantR, wantO)

				mc := New(prog)
				gateRun(t, vl+" mincover", src, prog, arg, mc, 0, wantR, wantO)
				if err := mc.Finalize(); err != nil {
					t.Fatalf("%s: mincover finalize: %v\n%s", vl, err, src)
				}
				if mc.Unexpected != 0 {
					t.Fatalf("%s: %d dynamic edges outside the static graph\n%s", vl, mc.Unexpected, src)
				}
				if !bytes.Equal(dcgBytes(t, mc.Graph), dcgBytes(t, ex.Graph)) {
					t.Fatalf("%s: recovered DCG differs from exhaustive\n%s", vl, src)
				}
				if c := mc.Cover; c.NumProbes() > c.NumPoints() {
					t.Fatalf("%s: %d probes exceed %d points\n%s", vl, c.NumProbes(), c.NumPoints(), src)
				}
			}
		})
	}
}

// TestClosureBenchmarksDemotedNotExhaustive pins the closure handling
// of the new suite entries: their static graphs contain closure points,
// every closure point stays probed (the always-probed demotion), and
// the probe set is still strictly smaller than exhaustive
// instrumentation's point set.
func TestClosureBenchmarksDemotedNotExhaustive(t *testing.T) {
	for _, name := range []string{"closures", "phases"} {
		b := bench.ByName(name)
		if b == nil {
			t.Fatalf("benchmark %s missing", name)
		}
		prog, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		c := Compute(prog)
		nClosure := 0
		for _, p := range c.Graph.Points {
			if c.Graph.IsClosurePoint(p) {
				nClosure++
				if !c.Probed[p] {
					t.Errorf("%s: closure point %+v not probed", name, p)
				}
			}
		}
		if nClosure == 0 {
			t.Errorf("%s: no closure points in the static graph", name)
		}
		if c.NumProbes() >= c.NumPoints() {
			t.Errorf("%s: probes %d not strictly fewer than %d points", name, c.NumProbes(), c.NumPoints())
		}
		t.Logf("%s: %d closure points, %d/%d probed (ratio %.2f)",
			name, nClosure, c.NumProbes(), c.NumPoints(), c.ProbeRatio())
	}
}

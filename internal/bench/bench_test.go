package bench

import (
	"bytes"
	"testing"

	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/mj"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

func TestSuiteComplete(t *testing.T) {
	want := []string{"compress", "jess", "db", "javac", "mpegaudio", "mtrt",
		"jack", "ipsixql", "xerces", "daikon", "kawa", "jbb", "soot", "closures", "phases"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d benchmarks, want %d", len(all), len(want))
	}
	for i, n := range want {
		if all[i].Name != n {
			t.Errorf("benchmark %d = %s, want %s", i, all[i].Name, n)
		}
	}
}

func TestAllCompileAndFollowProtocol(t *testing.T) {
	for _, b := range All() {
		prog, err := b.Compile()
		if err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		for _, fn := range []string{"main", "setup", "iter"} {
			if prog.MethodByName("$Globals."+fn) == nil {
				t.Errorf("%s: missing protocol function %s", b.Name, fn)
			}
		}
		main := prog.MethodByName("$Globals.main")
		if main.NArgs != 1 {
			t.Errorf("%s: main takes %d args, want 1", b.Name, main.NArgs)
		}
		if prog.MethodByName("$Globals.iter").NArgs != 0 {
			t.Errorf("%s: iter must take no arguments", b.Name)
		}
	}
}

func TestByNameAndSubset(t *testing.T) {
	if ByName("mtrt") == nil || ByName("nope") != nil {
		t.Error("ByName lookups wrong")
	}
	sub, err := Subset([]string{"jess", "compress"})
	if err != nil {
		t.Fatal(err)
	}
	// Registry order preserved: compress before jess.
	if len(sub) != 2 || sub[0].Name != "compress" || sub[1].Name != "jess" {
		t.Errorf("subset = %v", sub)
	}
	if _, err := Subset([]string{"bogus"}); err == nil {
		t.Error("unknown name should error")
	}
}

// runMain executes main(size) and returns (result, cycles).
func runMain(t *testing.T, b *Benchmark, size int64) (int64, uint64, *vm.VM) {
	t.Helper()
	prog, err := b.Compile()
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	m := vm.New(prog)
	m.MaxSteps = 2_000_000_000
	v, err := m.Run(size)
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	return v.I, m.Cycles, m
}

func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, b := range All() {
		// Use a reduced size for speed; determinism must hold anyway.
		size := b.Small / 4
		if size < 16 {
			size = 16
		}
		r1, c1, _ := runMain(t, b, size)
		r2, c2, _ := runMain(t, b, size)
		if r1 != r2 || c1 != c2 {
			t.Errorf("%s: nondeterministic (%d,%d) vs (%d,%d)", b.Name, r1, c1, r2, c2)
		}
	}
}

func TestCycleBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, b := range All() {
		_, cycles, m := runMain(t, b, b.Small)
		mc := float64(cycles) / 1e6
		if mc < 8 || mc > 60 {
			t.Errorf("%s-small: %.1fM cycles outside [8,60]M budget", b.Name, mc)
		}
		if m.Calls == 0 {
			t.Errorf("%s: no dynamic calls at all", b.Name)
		}
	}
}

// perfect returns the exhaustive DCG of main(size).
func perfect(t *testing.T, b *Benchmark, size int64) (*profile.DCG, *bytecode.Program) {
	t.Helper()
	prog, err := b.Compile()
	if err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	e := profiler.NewExhaustive()
	m := vm.New(prog)
	m.MaxSteps = 2_000_000_000
	m.SetProfiler(e)
	if _, err := m.Run(size); err != nil {
		t.Fatalf("%s: %v", b.Name, err)
	}
	return e.Graph, prog
}

func TestCallGraphCharacter(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Benchmarks whose design requires a polymorphic call site (>= 2
	// targets observed at one site).
	polymorphic := map[string]bool{
		"jess": true, "javac": true, "mtrt": true, "jack": true,
		"xerces": true, "daikon": true, "kawa": true, "jbb": true,
		"soot": true, "db": true,
	}
	for _, b := range All() {
		size := b.Small / 4
		if size < 16 {
			size = 16
		}
		g, _ := perfect(t, b, size)
		if g.NumEdges() < 4 {
			t.Errorf("%s: only %d DCG edges", b.Name, g.NumEdges())
		}
		if polymorphic[b.Name] {
			found := false
			for _, s := range g.Sites() {
				if len(g.SiteDistribution(s)) >= 2 {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: expected at least one polymorphic call site", b.Name)
			}
		}
	}
}

// The suite-wide inlining correctness property: optimizing any
// benchmark with any policy must not change its observable behavior.
func TestInliningPreservesSuiteSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	policies := []inline.Policy{
		inline.Trivial{},
		inline.NewOldJikes(),
		inline.NewNewLinear(),
		inline.NewJ9Static(),
		inline.NewJ9Dynamic(),
	}
	for _, b := range All() {
		size := b.Small / 8
		if size < 16 {
			size = 16
		}
		baseline, _, _ := runMain(t, b, size)
		g, _ := perfect(t, b, size)
		for _, pol := range policies {
			prog, err := b.Compile()
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if _, err := inline.Optimize(prog, pol, g, inline.DefaultOptions()); err != nil {
				t.Errorf("%s/%s: optimize: %v", b.Name, pol.Name(), err)
				continue
			}
			m := vm.New(prog)
			m.MaxSteps = 2_000_000_000
			v, err := m.Run(size)
			if err != nil {
				t.Errorf("%s/%s: run: %v", b.Name, pol.Name(), err)
				continue
			}
			if v.I != baseline {
				t.Errorf("%s/%s: result changed: %d vs %d", b.Name, pol.Name(), v.I, baseline)
			}
		}
	}
}

func TestSteadyStateProtocol(t *testing.T) {
	b := ByName("jess")
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog)
	m.MaxSteps = 2_000_000_000
	iter, err := Setup(m, 64)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	before := m.Cycles
	v1, err := m.Call(iter)
	if err != nil {
		t.Fatalf("iter: %v", err)
	}
	perIter := m.Cycles - before
	if perIter == 0 {
		t.Fatal("iter consumed no cycles")
	}
	// A second iteration still executes (facts mutate, so the result
	// may differ) and the VM stays consistent.
	if _, err := m.Call(iter); err != nil {
		t.Fatalf("iter 2: %v", err)
	}
	_ = v1
}

// TestSourcesRoundTripThroughPrinter checks the MJ printer on every
// suite program: print → re-parse → re-print must be a fixpoint, and
// the printed source must compile to a program of identical shape.
func TestSourcesRoundTripThroughPrinter(t *testing.T) {
	for _, b := range All() {
		toks, err := mj.Lex(b.Source)
		if err != nil {
			t.Fatalf("%s: lex: %v", b.Name, err)
		}
		ast1, err := mj.Parse(toks)
		if err != nil {
			t.Fatalf("%s: parse: %v", b.Name, err)
		}
		out1 := mj.Print(ast1)
		toks2, err := mj.Lex(out1)
		if err != nil {
			t.Fatalf("%s: lex printed: %v", b.Name, err)
		}
		ast2, err := mj.Parse(toks2)
		if err != nil {
			t.Fatalf("%s: parse printed: %v", b.Name, err)
		}
		if out2 := mj.Print(ast2); out1 != out2 {
			t.Errorf("%s: printer not a fixpoint", b.Name)
			continue
		}
		orig, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		printed, err := mj.Compile(out1)
		if err != nil {
			t.Errorf("%s: printed source does not compile: %v", b.Name, err)
			continue
		}
		if len(orig.Methods) != len(printed.Methods) || len(orig.Sites) != len(printed.Sites) {
			t.Errorf("%s: printed program shape differs (%d vs %d methods, %d vs %d sites)",
				b.Name, len(orig.Methods), len(printed.Methods), len(orig.Sites), len(printed.Sites))
		}
	}
}

// TestSuiteBinaryRoundTrip encodes each suite program to the MJBC
// binary format, decodes it, and checks the decoded program behaves
// identically.
func TestSuiteBinaryRoundTrip(t *testing.T) {
	for _, b := range All() {
		size := b.Small / 8
		if size < 16 {
			size = 16
		}
		orig, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		var buf bytes.Buffer
		if err := bytecode.EncodeProgram(orig, &buf); err != nil {
			t.Fatalf("%s: encode: %v", b.Name, err)
		}
		decoded, err := bytecode.DecodeProgram(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", b.Name, err)
		}
		m1 := vm.New(orig)
		m1.MaxSteps = 2_000_000_000
		v1, err := m1.Run(size)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		m2 := vm.New(decoded)
		m2.MaxSteps = 2_000_000_000
		v2, err := m2.Run(size)
		if err != nil {
			t.Fatalf("%s: decoded run: %v", b.Name, err)
		}
		if v1.I != v2.I || m1.Cycles != m2.Cycles {
			t.Errorf("%s: decoded program behaves differently (%d/%d vs %d/%d)",
				b.Name, v1.I, m1.Cycles, v2.I, m2.Cycles)
		}
	}
}

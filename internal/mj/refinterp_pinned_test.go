package mj_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/mj"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/refinterp_fuel.txt from this interpreter (and refinterp_results.txt, only when it is missing)")

// The reference interpreter's pin is two goldens. refResults is what
// each program computes: main's result or error text and a digest of
// its output. It is the oracle's meaning and is never regenerated.
// refFuel is what each run costs: the fuel the full run used and the
// row of a run with half of it, which pins where a run stops. It moves
// only with a change to the fuel rule.
const (
	refResults = "testdata/refinterp_results.txt"
	refFuel    = "testdata/refinterp_fuel.txt"
)

// pinFuel is more fuel than any pinned run burns.
const pinFuel = 1 << 40

// pinnedProgram is one row of the pin: a checked program and the
// argument its main runs with.
type pinnedProgram struct {
	name string
	ast  *mj.Program
	arg  int64
}

// trapPrograms reach each of the interpreter's run-time checks once.
// The last four pin the order it evaluates in (a virtual call's
// arguments before its receiver, a closure call's callee before its
// arguments), a constructor chain with instanceof and a cast, and a
// recursion 900 calls deep.
var trapPrograms = []string{
	`class A { int f; } int main(int n) { A a; a.f = n; return 0; }`,
	`class A { int f; } int main(int n) { A a; return a.f; }`,
	`int main(int n) { int[] a; a[0] = n; return 0; }`,
	`int main(int n) { int[] a; return a[0]; }`,
	`int main(int n) { int[] a; return a.length; }`,
	`int main(int n) { int[] a = new int[2]; a[n] = 1; return 0; }`,
	`int main(int n) { int[] a = new int[2]; return a[0 - n]; }`,
	`int main(int n) { int[] a = new int[0 - n]; return 0; }`,
	`int main(int n) { int[] a = new int[n * 100000000]; return 0; }`,
	`class A {} class B extends A {} int main(int n) { A a = new A(); B b = (B)a; return 0; }`,
	`int main(int n) { return n / (n - n); }`,
	`int main(int n) { return n % (n - n); }`,
	`int main(int n) { int m = 0x7FFFFFFFFFFFFFFF; m = m + n - 2; return m / (0 - 1) + m % (0 - 1); }`,
	`class A { int m() { return 1; } } int main(int n) { A a; return a.m(); }`,
	`int main(int n) { fn(int) int f; return f(n); }`,
	`class A { int m(int x) { return x; } }
	 A mk() { print(1); return new A(); }
	 int arg() { print(2); return 5; }
	 int main(int n) { return mk().m(arg()); }`,
	`fn(int) int mk() { print(1); return fn(int x) int { return x + 1; }; }
	 int arg() { print(2); return 5; }
	 int main(int n) { return mk()(arg()); }`,
	`class A { int v; A(int x) { this.v = x; } int get() { return v; } }
	 class B extends A { int w; B(int x) { super(x + 1); w = x; } int get() { return v * 10 + w; } }
	 int main(int n) { A a = new B(n); if (a instanceof B) { print(1); } return a.get() + ((B)a).w; }`,
	`int f(int d) { if (d == 0) { return 0; } return 1 + f(d - 1); } int main(int n) { return f(n * 300); }`,
}

// pinnedPrograms are the 15 suite programs at a quarter of the small
// input (the benchmark's --smoke size), GenerateProgram seeds 0–31 and
// the trap programs.
func pinnedPrograms(tb testing.TB) []pinnedProgram {
	tb.Helper()
	var out []pinnedProgram
	add := func(name, src string, arg int64) {
		ast, err := checked(src)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		out = append(out, pinnedProgram{name, ast, arg})
	}
	for _, b := range bench.All() {
		add(b.Name, b.Source, b.Small/4)
	}
	for seed := int64(0); seed < 32; seed++ {
		add(fmt.Sprintf("gen%d", seed), mj.GenerateProgram(seed, 4), seed*17%89)
	}
	for i, src := range trapPrograms {
		add(fmt.Sprintf("trap%d", i), src, 3)
	}
	return out
}

func checked(src string) (*mj.Program, error) {
	toks, err := mj.Lex(src)
	if err != nil {
		return nil, err
	}
	ast, err := mj.Parse(toks)
	if err != nil {
		return nil, err
	}
	return ast, mj.Check(ast)
}

// refRow runs main once with the given fuel and returns its outcome:
// result (or error text) and an FNV-64a digest of Output, and the fuel
// consumed.
func refRow(p pinnedProgram, fuel int64) (outcome string, used int64, err error) {
	in := mj.NewRefInterp(p.ast, fuel)
	r, err := in.CallFunction("main", p.arg)
	h := fnv.New64a()
	for _, v := range in.Output {
		fmt.Fprintf(h, "%d,", v)
	}
	used = fuel - in.FuelLeft()
	res := fmt.Sprint(r)
	if err != nil {
		res = fmt.Sprintf("%q", err.Error())
	}
	return fmt.Sprintf("%s %s out=%d/%016x", p.name, res, len(in.Output), h.Sum64()), used, err
}

// TestRefInterpPinned holds the reference interpreter to what it
// computed at the commit before it was rewritten, for every suite
// program, 32 generated ones and the trap programs: main's result and a
// digest of its print output (refResults), and the exact fuel the run
// consumed (refFuel). Then the fuel boundary: the consumed fuel F is
// enough, F−1 runs out, and what a run with half of F printed before it
// ran out is pinned in refFuel too.
func TestRefInterpPinned(t *testing.T) {
	var results, fuel []string
	for _, p := range pinnedPrograms(t) {
		outcome, used, err := refRow(p, pinFuel)
		half, halfUsed, _ := refRow(p, used/2)
		results = append(results, outcome)
		fuel = append(fuel, fmt.Sprintf("%s fuel=%d", p.name, used), fmt.Sprintf("%s fuel=%d", half, halfUsed))
		if err != nil {
			continue
		}
		if again, _, err := refRow(p, used); err != nil || again != outcome {
			t.Errorf("%s: fuel %d (exactly what it used) gave %s, %v; want %s", p.name, used, again, err, outcome)
		}
		if _, _, err := refRow(p, used-1); err == nil || !strings.Contains(err.Error(), "out of fuel") {
			t.Errorf("%s: fuel %d (one short) gave %v, want out of fuel", p.name, used-1, err)
		}
	}
	checkGolden(t, refResults, results, false)
	checkGolden(t, refFuel, fuel, true)
}

// checkGolden compares lines with the golden at path. Under
// -update-golden it writes the golden instead, when rewrite is set or
// the file is missing.
func checkGolden(t *testing.T, path string, lines []string, rewrite bool) {
	t.Helper()
	text := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(path)
	if *updateGolden && (rewrite || os.IsNotExist(err)) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%v (run with -update-golden at a commit whose interpreter is the reference)", err)
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
			t.Errorf("%s moved:\n got  %s\n want %s", path, line, w)
		}
	}
	if len(wantLines) != len(lines) {
		t.Errorf("%s: %d rows, golden has %d", path, len(lines), len(wantLines))
	}
}

// TestRefInterpRunawayRecursionIsAnError: unbounded recursion under
// the benchmark's fuel is an error naming the depth bound (the VM traps
// with a stack overflow), not a fatal overflow of the Go stack, and
// recursion to exactly the bound still runs.
func TestRefInterpRunawayRecursionIsAnError(t *testing.T) {
	runaway, err := checked(`int f(int x) { return f(x + 1); } int main(int n) { return f(n); }`)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("reference interpreter call depth exceeds %d", mj.MaxRefDepth)
	if _, err := mj.NewRefInterp(runaway, pinFuel).CallFunction("main", 0); err == nil || err.Error() != want {
		t.Fatalf("runaway recursion gave %v, want %q", err, want)
	}

	// main is call 1, so f(n) is n+1 calls deep below it.
	deep, err := checked(`int f(int d) { if (d == 0) { return 0; } return 1 + f(d - 1); } int main(int n) { return f(n); }`)
	if err != nil {
		t.Fatal(err)
	}
	in := mj.NewRefInterp(deep, pinFuel)
	if r, err := in.CallFunction("main", mj.MaxRefDepth-2); err != nil || r != mj.MaxRefDepth-2 {
		t.Errorf("recursion to the bound gave %d, %v", r, err)
	}
	if _, err := in.CallFunction("main", mj.MaxRefDepth-1); err == nil || err.Error() != want {
		t.Errorf("recursion one past the bound gave %v, want %q", err, want)
	}
	if r, err := in.CallFunction("main", 5); err != nil || r != 5 {
		t.Errorf("a call after a trapped one gave %d, %v", r, err)
	}
}

// BenchmarkRefInterp runs main of each suite program under the
// reference interpreter at the small input, preparation included: the
// testing.B twin of the repo benchmark's mj.ref_interp_ms (which also
// lexes, parses and checks).
func BenchmarkRefInterp(b *testing.B) {
	for _, bm := range bench.All() {
		ast, err := checked(bm.Source)
		if err != nil {
			b.Fatalf("%s: %v", bm.Name, err)
		}
		b.Run(bm.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mj.NewRefInterp(ast, pinFuel).CallFunction("main", bm.Small); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

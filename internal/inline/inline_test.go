package inline

import (
	"reflect"
	"testing"

	"gocbs/internal/bytecode"
	"gocbs/internal/mj"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// runProg executes a program and returns (result, output, cycles).
func runProg(t *testing.T, prog *bytecode.Program, args ...int64) (int64, []int64, uint64) {
	t.Helper()
	m := vm.New(prog)
	m.MaxSteps = 100_000_000
	v, err := m.Run(args...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return v.I, m.Output, m.Cycles
}

// compile2 compiles the same source twice so one copy can be mutated.
func compile2(t *testing.T, src string) (*bytecode.Program, *bytecode.Program) {
	t.Helper()
	p1, err := mj.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	p2, err := mj.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p1, p2
}

// perfectProfile runs the program exhaustively and returns its DCG.
func perfectProfile(t *testing.T, prog *bytecode.Program, args ...int64) *profile.DCG {
	t.Helper()
	e := profiler.NewExhaustive()
	m := vm.New(prog)
	m.MaxSteps = 100_000_000
	m.SetProfiler(e)
	if _, err := m.Run(args...); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	return e.Graph
}

const polySrc = `
	class Op { int apply(int x) { return x; } }
	class Double extends Op { int apply(int x) { return x * 2; } }
	class Square extends Op { int apply(int x) { return x * x; } }
	int helper(int x) { return x + 7; }
	int main(int n) {
		Op d = new Double();
		Op s = new Square();
		int acc = 0;
		for (int i = 0; i < n; i = i + 1) {
			acc = acc + d.apply(i);      // dominant: Double (hot virtual)
			if (i % 10 == 0) { acc = acc + s.apply(i); }
			acc = acc + helper(i);       // hot static
			print(acc % 1000);
		}
		return acc;
	}
`

// assertSameBehavior checks the optimized program computes the same
// results as the original (and strictly fewer cycles if expectFaster).
func assertSameBehavior(t *testing.T, orig, opt *bytecode.Program, expectFaster bool, args ...int64) {
	t.Helper()
	r1, out1, cy1 := runProg(t, orig, args...)
	r2, out2, cy2 := runProg(t, opt, args...)
	if r1 != r2 {
		t.Fatalf("results differ: %d vs %d", r1, r2)
	}
	if len(out1) != len(out2) {
		t.Fatalf("output lengths differ: %d vs %d", len(out1), len(out2))
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("output[%d] differs: %d vs %d", i, out1[i], out2[i])
		}
	}
	if expectFaster && cy2 >= cy1 {
		t.Errorf("inlined program should be faster: %d vs %d cycles", cy2, cy1)
	}
}

func TestStaticInlinePreservesSemantics(t *testing.T) {
	orig, opt := compile2(t, polySrc)
	g := perfectProfile(t, opt, 200)
	if _, err := Optimize(opt, NewNewLinear(), g, DefaultOptions()); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	assertSameBehavior(t, orig, opt, true, 200)
}

func TestGuardedInlinePolymorphicFallback(t *testing.T) {
	// The dominant target is Double; Square receivers must take the
	// fallback path and still compute correctly.
	orig, opt := compile2(t, polySrc)
	g := perfectProfile(t, opt, 500)
	rep, err := Optimize(opt, NewNewLinear(), g, DefaultOptions())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if rep.GuardedInlines == 0 {
		t.Error("expected at least one guarded inline")
	}
	assertSameBehavior(t, orig, opt, true, 500)
}

func TestInlineInsideLoopBranchFixup(t *testing.T) {
	src := `
		int inc(int x) { return x + 1; }
		int main(int n) {
			int acc = 0;
			for (int i = 0; i < n; i = i + 1) {
				if (i % 3 == 0) { acc = inc(acc); } else { acc = acc + 2; }
				while (acc > 100) { acc = acc - 100; }
			}
			return acc;
		}
	`
	orig, opt := compile2(t, src)
	if _, err := Optimize(opt, NewJ9Static(), nil, DefaultOptions()); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	assertSameBehavior(t, orig, opt, true, 1000)
}

func TestNullGuardMonomorphicVirtual(t *testing.T) {
	src := `
		class Only { int f(int x) { return x * 3; } }
		int main(int n) {
			Only o = new Only();
			int acc = 0;
			for (int i = 0; i < n; i = i + 1) { acc = acc + o.f(i); }
			return acc;
		}
	`
	orig, opt := compile2(t, src)
	rep, err := Optimize(opt, NewJ9Static(), nil, DefaultOptions())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if rep.GuardedInlines == 0 {
		t.Error("CHA-monomorphic virtual should be null-guard inlined")
	}
	assertSameBehavior(t, orig, opt, true, 300)
}

func TestNullReceiverStillTrapsAfterInline(t *testing.T) {
	src := `
		class Only { int f() { return 1; } }
		Only make(boolean yes) { if (yes) { return new Only(); } return null; }
		int main(int n) {
			Only o = make(n > 0);
			return o.f();
		}
	`
	_, opt := compile2(t, src)
	if _, err := Optimize(opt, NewJ9Static(), nil, DefaultOptions()); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	m := vm.New(opt)
	if _, err := m.Run(0); err == nil {
		t.Fatal("virtual call on nil must trap even after null-guard inlining")
	}
	m2 := vm.New(opt)
	v, err := m2.Run(5)
	if err != nil || v.I != 1 {
		t.Fatalf("non-nil path broken: %v, %v", v, err)
	}
}

func TestRecursiveCallNotInlined(t *testing.T) {
	src := `
		int fact(int n) {
			if (n < 2) { return 1; }
			return n * fact(n - 1);
		}
		int main(int n) { return fact(n); }
	`
	orig, opt := compile2(t, src)
	if _, err := Optimize(opt, NewJ9Static(), nil, DefaultOptions()); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	assertSameBehavior(t, orig, opt, false, 10)
	r, _, _ := runProg(t, opt, 10)
	if r != 3628800 {
		t.Errorf("fact(10) = %d", r)
	}
}

func TestNestedInliningDepth(t *testing.T) {
	src := `
		int leaf(int x) { return x + 1; }
		int mid(int x) { return leaf(x) * 2; }
		int top(int x) { return mid(x) + 3; }
		int main(int n) {
			int acc = 0;
			for (int i = 0; i < n; i = i + 1) { acc = acc + top(i); }
			return acc;
		}
	`
	orig, opt := compile2(t, src)
	if _, err := Optimize(opt, NewJ9Static(), nil, DefaultOptions()); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	main := opt.MethodByName("$Globals.main")
	// After nested inlining, main should contain no calls to top/mid/leaf.
	for _, cs := range ScanCalls(opt, main) {
		if cs.Static != nil {
			t.Errorf("main still calls %s after depth-%d inlining", cs.Static.Name, DefaultOptions().MaxDepth)
		}
	}
	assertSameBehavior(t, orig, opt, true, 500)
}

func TestSizeCapRespected(t *testing.T) {
	src := `
		int big(int x) {
			int a = x + 1; int b = a + 2; int c = b + 3; int d = c + 4;
			int e = d + 5; int f = e + 6; int g = f + 7; int h = g + 8;
			return a + b + c + d + e + f + g + h;
		}
		int main(int n) {
			int acc = 0;
			acc = acc + big(1); acc = acc + big(2); acc = acc + big(3);
			acc = acc + big(4); acc = acc + big(5); acc = acc + big(6);
			acc = acc + big(7); acc = acc + big(8); acc = acc + big(9);
			return acc;
		}
	`
	orig, opt := compile2(t, src)
	opts := Options{MaxDepth: 2, MaxMethodSize: 120}
	if _, err := Optimize(opt, NewJ9Static(), nil, opts); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	main := opt.MethodByName("$Globals.main")
	if len(main.Code) > opts.MaxMethodSize+60 {
		t.Errorf("main grew to %d instructions; cap was %d", len(main.Code), opts.MaxMethodSize)
	}
	assertSameBehavior(t, orig, opt, false, 1)
}

func TestOldJikesIgnoresNonHotVirtuals(t *testing.T) {
	prog, err := mj.Compile(polySrc)
	if err != nil {
		t.Fatal(err)
	}
	// Build a profile where the virtual site is present but cool
	// (below 1% of total weight): 20 samples, all Double, beside 2 980.
	g := profile.NewDCG()
	main := prog.MethodByName("$Globals.main")
	apply := prog.MethodByName("Double.apply")
	helper := prog.MethodByName("$Globals.helper")
	var virtSite, staticSite int
	for _, cs := range ScanCalls(prog, main) {
		if cs.Op == bytecode.OpCallVirtual && virtSite == 0 {
			virtSite = cs.Site
		}
		if cs.Static == helper {
			staticSite = cs.Site
		}
	}
	g.AddSample(profile.Edge{Caller: main.ID, Site: virtSite, Callee: apply.ID}, 20)
	g.AddSample(profile.Edge{Caller: main.ID, Site: staticSite, Callee: helper.ID}, 2980)

	plan := NewOldJikes().Plan(prog, main, NewEvidence(prog, g))
	for _, d := range plan {
		if d.Guarded {
			t.Errorf("old inliner guard-inlined a non-hot virtual site")
		}
	}

	// The new inliner, with the same profile, does guard-inline it: at
	// 0.67% weight the threshold is small but the site's distribution is
	// 100% Double on 20 samples (an estimate of 89%: the site is alone in
	// its family, so its prior is uniform over Op's three apply methods);
	// NewLinear requires share > 40% and size <= threshold(0.67) ≈
	// MinSize. Double.apply is tiny, so yes. One sample would not do: a
	// site alone in its family shrinks toward uniform, not toward itself.
	newPlan := NewNewLinear().Plan(prog, main, NewEvidence(prog, g))
	foundGuard := false
	for _, d := range newPlan {
		if d.Guarded {
			foundGuard = true
		}
	}
	if !foundGuard {
		t.Errorf("new inliner should exploit low-weight distribution data")
	}
}

func TestJ9DynamicColdSuppression(t *testing.T) {
	src := `
		int tiny(int x) { return x + 1; }
		int main(int n) {
			int acc = 0;
			for (int i = 0; i < n; i = i + 1) { acc = tiny(acc); }
			return acc;
		}
	`
	prog, err := mj.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	main := prog.MethodByName("$Globals.main")

	// Static policy inlines tiny unconditionally.
	if plan := NewJ9Static().Plan(prog, main, nil); len(plan) == 0 {
		t.Fatal("static policy should inline tiny")
	}

	// A profile that never saw the site (weight 0 out of a total that
	// is non-zero) suppresses the inline.
	g := profile.NewDCG()
	g.AddSample(profile.Edge{Caller: 999, Site: 999, Callee: 998}, 100)
	if plan := NewJ9Dynamic().Plan(prog, main, NewEvidence(prog, g)); len(plan) != 0 {
		t.Errorf("dynamic policy should suppress inlining at cold sites, got %d decisions", len(plan))
	}

	// A hot profile re-enables it.
	var site int
	for _, cs := range ScanCalls(prog, main) {
		site = cs.Site
	}
	g2 := profile.NewDCG()
	tiny := prog.MethodByName("$Globals.tiny")
	g2.AddSample(profile.Edge{Caller: main.ID, Site: site, Callee: tiny.ID}, 100)
	if plan := NewJ9Dynamic().Plan(prog, main, NewEvidence(prog, g2)); len(plan) == 0 {
		t.Error("dynamic policy should inline at hot sites")
	}
}

func TestTrivialPolicyOnlyTrivial(t *testing.T) {
	src := `
		int tiny(int x) { return x; }
		int big(int x) {
			int a = 0;
			for (int i = 0; i < x; i = i + 1) { a = a + i; }
			return a;
		}
		int main(int n) { return tiny(n) + big(n); }
	`
	orig, opt := compile2(t, src)
	if _, err := Optimize(opt, Trivial{}, nil, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	main := opt.MethodByName("$Globals.main")
	calls := ScanCalls(opt, main)
	if len(calls) != 1 || calls[0].Static.Name != "$Globals.big" {
		t.Errorf("trivial policy should leave only the call to big, got %v", calls)
	}
	assertSameBehavior(t, orig, opt, true, 50)
}

func TestApplyRejectsBadDecisions(t *testing.T) {
	prog, err := mj.Compile("int f() { return 1; } int main() { return f(); }")
	if err != nil {
		t.Fatal(err)
	}
	main := prog.Entry
	f := prog.MethodByName("$Globals.f")
	if err := Apply(prog, main, []Decision{{PC: 0, Target: f, Guarded: true}}); err == nil {
		t.Error("guarded static inline should be rejected")
	}
	if err := Apply(prog, main, []Decision{{PC: 99, Target: f}}); err == nil {
		t.Error("out-of-range PC should be rejected")
	}
	// Find the actual call pc.
	callPC := -1
	for pc, ins := range main.Code {
		if ins.Op == bytecode.OpCallStatic {
			callPC = pc
		}
	}
	if err := Apply(prog, main, []Decision{{PC: callPC, Target: f}, {PC: callPC, Target: f}}); err == nil {
		t.Error("duplicate decisions should be rejected")
	}
}

func TestCallSiteIDsPreservedAcrossInlining(t *testing.T) {
	// Profile-before and profile-after inlining must agree on the IDs
	// of surviving call sites (the fallback call keeps its ID).
	orig, opt := compile2(t, polySrc)
	gBefore := perfectProfile(t, orig, 100)
	g := perfectProfile(t, opt, 100)
	if _, err := Optimize(opt, NewNewLinear(), g, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	gAfter := perfectProfile(t, opt, 100)
	// Every site surviving in the optimized program must have existed
	// before (no new IDs are minted).
	before := map[int]bool{}
	for _, e := range gBefore.Edges() {
		before[e.Site] = true
	}
	for _, e := range gAfter.Edges() {
		if !before[e.Site] {
			t.Errorf("optimized program produced a brand-new call-site ID %d", e.Site)
		}
	}
}

func TestImplementationsCHA(t *testing.T) {
	prog, err := mj.Compile(`
		class A { int f() { return 1; } int g() { return 2; } }
		class B extends A { int f() { return 3; } }
		int main() { return new B().f() + new A().g(); }
	`)
	if err != nil {
		t.Fatal(err)
	}
	af := prog.MethodByName("A.f")
	ag := prog.MethodByName("A.g")
	if n := len(Implementations(prog, af.VSlot)); n != 2 {
		t.Errorf("f has %d implementations, want 2", n)
	}
	if n := len(Implementations(prog, ag.VSlot)); n != 1 {
		t.Errorf("g has %d implementations, want 1", n)
	}
}

// TestDifferentialInliningOnGeneratedPrograms runs randomly generated
// well-typed programs before and after optimization under every
// policy; results and output must be identical. Combined with the
// mj-package differential tests (reference interpreter vs VM), this
// closes the loop: AST semantics == bytecode semantics == inlined
// bytecode semantics.
func TestDifferentialInliningOnGeneratedPrograms(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	policies := []Policy{NewOldJikes(), NewNewLinear(), NewJ9Static(), NewJ9Dynamic()}
	for seed := int64(500); seed < int64(500+n); seed++ {
		src := mj.GenerateProgram(seed, 3)
		arg := seed % 89
		orig, err := mj.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		wantR, wantO, _ := runProg(t, orig, arg)
		g := perfectProfile(t, orig, arg)
		for _, pol := range policies {
			opt, err := mj.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Optimize(opt, pol, g, DefaultOptions()); err != nil {
				t.Fatalf("seed %d policy %s: optimize: %v", seed, pol.Name(), err)
			}
			gotR, gotO, _ := runProg(t, opt, arg)
			if gotR != wantR || len(gotO) != len(wantO) {
				t.Fatalf("seed %d policy %s: behavior changed (%d vs %d, %d vs %d outputs)\n%s",
					seed, pol.Name(), gotR, wantR, len(gotO), len(wantO), src)
			}
			for i := range wantO {
				if gotO[i] != wantO[i] {
					t.Fatalf("seed %d policy %s: output[%d] differs\n%s", seed, pol.Name(), i, src)
				}
			}
		}
	}
}

// halfBadSrc has a method, step, with two static calls in it; halfBad
// plans both, one of them wrongly.
const halfBadSrc = `
	int one(int x) { return x + 1; }
	int two(int x, int y) { return x * 3 + y; }
	int step(int i, int acc) { return acc + one(i) + two(i, acc) % 7; }
	int main(int n) {
		int acc = 0;
		for (int i = 0; i < n; i = i + 1) { acc = step(i, acc) % 1000003; }
		return acc;
	}
`

// halfBad plans both of step's calls, one of them wrongly. With
// unverifiable set, one is inlined at its own call and again at the call
// to two — an argument short, so the splice goes through and only the
// verifier can catch what it made. Without it, two is inlined soundly
// and the call to one gets a guard, which the splicer refuses for a
// static call: the refused decision has the lower pc, so a rewriter
// working from the top pc down has applied the sound one by then.
type halfBad struct{ unverifiable bool }

func (halfBad) Name() string { return "half-bad" }

func (h halfBad) Plan(prog *bytecode.Program, m *bytecode.Method, _ *Evidence) []Decision {
	if m.Name != "$Globals.step" {
		return nil
	}
	one := prog.MethodByName("$Globals.one")
	var ds []Decision
	for _, cs := range ScanCalls(prog, m) {
		switch {
		case cs.Static == one:
			ds = append(ds, Decision{PC: cs.PC, Target: one, Guarded: !h.unverifiable})
		case h.unverifiable:
			ds = append(ds, Decision{PC: cs.PC, Target: one})
		default:
			ds = append(ds, Decision{PC: cs.PC, Target: cs.Static})
		}
	}
	return ds
}

// A round of decisions is applied whole or not at all: when one of them
// is refused, or the method they make fails verification, the method is
// what it was — code (the same array), constant pool, frame, size and
// trivial mark — and the program computes what it computed.
func TestRejectedRoundLeavesMethodUntouched(t *testing.T) {
	for _, unverifiable := range []bool{false, true} {
		orig, prog := compile2(t, halfBadSrc)
		step := prog.MethodByName("$Globals.step")
		step.Consts = append(step.Consts, 1<<40) // a pool to keep
		before := *step
		code := append([]bytecode.Instr(nil), step.Code...)
		_, err := Optimize(prog, halfBad{unverifiable}, nil, DefaultOptions())
		if err == nil {
			t.Fatalf("unverifiable=%v: a bad decision was applied without complaint", unverifiable)
		}
		if &step.Code[0] != &before.Code[0] || !reflect.DeepEqual(step.Code, code) {
			t.Errorf("unverifiable=%v: the rejected body was installed (%v):\n%s", unverifiable, err, bytecode.DisasmMethod(prog, step))
		}
		if !reflect.DeepEqual(step.Consts, before.Consts) || step.NLocals != before.NLocals || step.MaxStack != before.MaxStack ||
			step.Size != before.Size || step.Trivial != before.Trivial {
			t.Errorf("unverifiable=%v: consts %v, locals %d, max stack %d, size %d, trivial %v after a rejected round; before it %v, %d, %d, %d, %v",
				unverifiable, step.Consts, step.NLocals, step.MaxStack, step.Size, step.Trivial,
				before.Consts, before.NLocals, before.MaxStack, before.Size, before.Trivial)
		}
		assertSameBehavior(t, orig, prog, false, 500)
	}
}

package opt

import (
	"reflect"
	"testing"

	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/mj"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

func compileMJ(t *testing.T, src string) *bytecode.Program {
	t.Helper()
	p, err := mj.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func runP(t *testing.T, p *bytecode.Program, args ...int64) (int64, []int64, uint64) {
	t.Helper()
	m := vm.New(p)
	m.MaxSteps = 50_000_000
	v, err := m.Run(args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v.I, m.Output, m.Instrs
}

func TestFoldConstants(t *testing.T) {
	pb := bytecode.NewProgramBuilder()
	f := pb.NewFunc("main", 0)
	f.Const(6)
	f.Const(7)
	f.Emit(bytecode.OpMul)
	f.Const(2)
	f.Emit(bytecode.OpAdd)
	f.Emit(bytecode.OpReturn)
	pb.SetEntry(f)
	p, err := pb.Link()
	if err != nil {
		t.Fatal(err)
	}
	removed, err := Cleanup(p, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if removed < 2 {
		t.Errorf("removed %d instructions, want at least 2", removed)
	}
	v, _, _ := runP(t, p)
	if v != 44 {
		t.Errorf("result = %d, want 44", v)
	}
	// The whole computation should have folded to a single constant.
	if len(p.Entry.Code) != 2 {
		t.Errorf("code = %d instructions, want 2 (const, return):\n%s",
			len(p.Entry.Code), bytecode.DisasmMethod(p, p.Entry))
	}
}

func TestFoldPreservesDivByZeroTrap(t *testing.T) {
	pb := bytecode.NewProgramBuilder()
	f := pb.NewFunc("main", 0)
	f.Const(5)
	f.Const(0)
	f.Emit(bytecode.OpDiv)
	f.Emit(bytecode.OpReturn)
	pb.SetEntry(f)
	p, err := pb.Link()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Cleanup(p, p.Entry); err != nil {
		t.Fatal(err)
	}
	m := vm.New(p)
	if _, err := m.Run(); err == nil {
		t.Fatal("division by zero must still trap after cleanup")
	}
}

func TestJumpThreadingAndDeadCode(t *testing.T) {
	pb := bytecode.NewProgramBuilder()
	f := pb.NewFunc("main", 1)
	l1 := f.NewLabel()
	l2 := f.NewLabel()
	end := f.NewLabel()
	f.Emit(bytecode.OpLoad, 0)
	f.Branch(bytecode.OpJumpZ, l1)
	f.Const(1)
	f.Branch(bytecode.OpJump, end)
	f.Bind(l1)
	f.Branch(bytecode.OpJump, l2) // jump-to-jump
	f.Emit(bytecode.OpNop)        // unreachable
	f.Emit(bytecode.OpNop)
	f.Bind(l2)
	f.Const(2)
	f.Branch(bytecode.OpJump, end)
	f.Bind(end)
	f.Emit(bytecode.OpReturn)
	pb.SetEntry(f)
	p, err := pb.Link()
	if err != nil {
		t.Fatal(err)
	}
	before := len(p.Entry.Code)
	removed, err := Cleanup(p, p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Errorf("expected dead/threaded instructions to be removed (body was %d)", before)
	}
	if v, _, _ := runP(t, p, 0); v != 2 {
		t.Errorf("main(0) = %d, want 2", v)
	}
	if v, _, _ := runP(t, p, 9); v != 1 {
		t.Errorf("main(9) = %d, want 1", v)
	}
}

func TestCleanupOnInlinedBenchmarks(t *testing.T) {
	// Cleanup after inlining must preserve behaviour and shrink code.
	src := `
		class Op { int apply(int x) { return x + 1; } }
		class Twice extends Op { int apply(int x) { return x * 2; } }
		int helper(int x) { return (2 + 3) * x; }
		int main(int n) {
			Op o = new Twice();
			int acc = 0;
			for (int i = 0; i < n; i = i + 1) {
				acc = acc + o.apply(i) + helper(i);
			}
			return acc;
		}
	`
	plain := compileMJ(t, src)
	wantR, wantO, _ := runP(t, plain, 500)

	optd := compileMJ(t, src)
	e := profiler.NewExhaustive()
	mm := vm.New(optd)
	mm.SetProfiler(e)
	if _, err := mm.Run(500); err != nil {
		t.Fatal(err)
	}
	if _, err := inline.Optimize(optd, inline.NewNewLinear(), e.Graph, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	sizeBefore := optd.TotalCodeSize()
	removed, err := CleanupProgram(optd)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Error("cleanup found nothing to remove after inlining")
	}
	if optd.TotalCodeSize() >= sizeBefore {
		t.Error("cleanup did not shrink the program")
	}
	gotR, gotO, _ := runP(t, optd, 500)
	if gotR != wantR || len(gotO) != len(wantO) {
		t.Fatalf("cleanup changed behaviour: %d vs %d", gotR, wantR)
	}
}

// TestDifferentialCleanupOnGeneratedPrograms fuzzes the optimizer: for
// random programs, cleanup after inlining must not change results.
func TestDifferentialCleanupOnGeneratedPrograms(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	for seed := int64(900); seed < int64(900+n); seed++ {
		src := mj.GenerateProgram(seed, 3)
		arg := seed % 71
		plain := compileMJ(t, src)
		wantR, wantO, _ := runP(t, plain, arg)

		optd := compileMJ(t, src)
		if _, err := inline.Optimize(optd, inline.NewJ9Static(), nil, inline.DefaultOptions()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := CleanupProgram(optd); err != nil {
			t.Fatalf("seed %d: cleanup: %v\n%s", seed, err, src)
		}
		gotR, gotO, _ := runP(t, optd, arg)
		if gotR != wantR || len(gotO) != len(wantO) {
			t.Fatalf("seed %d: cleanup changed behaviour (%d vs %d)\n%s", seed, gotR, wantR, src)
		}
		for i := range wantO {
			if gotO[i] != wantO[i] {
				t.Fatalf("seed %d: output[%d] differs\n%s", seed, i, src)
			}
		}
	}
}

func TestCleanupIdempotent(t *testing.T) {
	src := mj.GenerateProgram(42, 3)
	p := compileMJ(t, src)
	if _, err := inline.Optimize(p, inline.NewJ9Static(), nil, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := CleanupProgram(p); err != nil {
		t.Fatal(err)
	}
	again, err := CleanupProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Errorf("second cleanup removed %d more instructions; pass is not a fixpoint", again)
	}
}

// A rewrite that does not verify is not installed: the method keeps its
// code (the same array, so a VM's span table for it stays good), its
// size and its frame. The method here is broken before the pass sees it
// — one local too few — so whatever the pass builds fails verification.
func TestFailedRewriteLeavesMethodUntouched(t *testing.T) {
	passes := map[string]func(*bytecode.Program, *bytecode.Method) error{
		"fuse":    func(p *bytecode.Program, m *bytecode.Method) error { _, err := FuseMethod(p, m); return err },
		"cleanup": func(p *bytecode.Program, m *bytecode.Method) error { _, err := Cleanup(p, m); return err },
	}
	for name, pass := range passes {
		pb := bytecode.NewProgramBuilder()
		mb := pb.NewFunc("main", 1)
		acc := mb.AllocLocal()
		mb.Const(2) // folds; const+add fuses
		mb.Const(3)
		mb.Emit(bytecode.OpAdd)
		mb.Emit(bytecode.OpStore, int32(acc))
		mb.Emit(bytecode.OpLoad, int32(acc)) // load+load fuses
		mb.Emit(bytecode.OpLoad, 0)
		mb.Emit(bytecode.OpAdd)
		mb.Emit(bytecode.OpReturn)
		pb.SetEntry(mb)
		prog, err := pb.Link()
		if err != nil {
			t.Fatal(err)
		}
		m := prog.Entry
		m.NLocals--
		before := *m
		code := append([]bytecode.Instr(nil), m.Code...)
		if err := pass(prog, m); err == nil {
			t.Fatalf("%s: a method with a local out of range was rewritten without complaint", name)
		}
		if &m.Code[0] != &before.Code[0] || !reflect.DeepEqual(m.Code, code) {
			t.Errorf("%s: the rejected body was installed:\n%s", name, bytecode.DisasmMethod(prog, m))
		}
		if m.Size != before.Size || m.NLocals != before.NLocals || m.MaxStack != before.MaxStack || m.Trivial != before.Trivial {
			t.Errorf("%s: size %d, locals %d, max stack %d, trivial %v after a rejected rewrite; before it %d, %d, %d, %v",
				name, m.Size, m.NLocals, m.MaxStack, m.Trivial, before.Size, before.NLocals, before.MaxStack, before.Trivial)
		}
	}
}

package vm

import (
	"strings"
	"testing"
	"unsafe"

	"gocbs/internal/bytecode"
)

func TestVTEqSemantics(t *testing.T) {
	pb := bytecode.NewProgramBuilder()
	a := pb.NewClass("A", nil)
	af := a.NewMethod("f", false, 1)
	af.Const(1)
	af.Emit(bytecode.OpReturn)
	b := pb.NewClass("B", a)
	bf := b.NewMethod("f", false, 1)
	bf.Const(2)
	bf.Emit(bytecode.OpReturn)
	c := pb.NewClass("C", a) // inherits A.f

	main := pb.NewFunc("main", 1)
	// Select receiver by arg: 0 -> A, 1 -> B, 2 -> C, 3 -> null.
	la := main.NewLabel()
	lb := main.NewLabel()
	lc := main.NewLabel()
	test := main.NewLabel()
	obj := main.AllocLocal()
	main.Emit(bytecode.OpLoad, 0)
	main.Const(1)
	main.Emit(bytecode.OpEq)
	main.Branch(bytecode.OpJumpNZ, lb)
	main.Emit(bytecode.OpLoad, 0)
	main.Const(2)
	main.Emit(bytecode.OpEq)
	main.Branch(bytecode.OpJumpNZ, lc)
	main.Emit(bytecode.OpLoad, 0)
	main.Const(0)
	main.Emit(bytecode.OpEq)
	main.Branch(bytecode.OpJumpNZ, la)
	main.Emit(bytecode.OpNull)
	main.Emit(bytecode.OpStore, int32(obj))
	main.Branch(bytecode.OpJump, test)
	main.Bind(la)
	main.Emit(bytecode.OpNew, int32(a.ID()))
	main.Emit(bytecode.OpStore, int32(obj))
	main.Branch(bytecode.OpJump, test)
	main.Bind(lb)
	main.Emit(bytecode.OpNew, int32(b.ID()))
	main.Emit(bytecode.OpStore, int32(obj))
	main.Branch(bytecode.OpJump, test)
	main.Bind(lc)
	main.Emit(bytecode.OpNew, int32(c.ID()))
	main.Emit(bytecode.OpStore, int32(obj))
	main.Bind(test)
	main.Emit(bytecode.OpLoad, int32(obj))
	pb.SetEntry(main)
	// Method IDs are assigned class-by-class in declaration order:
	// $Globals.main is 0, A.f is 1 (slot 0). Emit the guard for A.f and
	// confirm the assumption after linking.
	main.Emit(bytecode.OpVTEq, bytecode.EncodeVTEq(0, 1))
	main.Emit(bytecode.OpReturn)
	prog, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	mAf := prog.MethodByName("A.f")
	if mAf.ID != 1 || mAf.VSlot != 0 {
		t.Fatalf("test assumption broken: A.f has id %d slot %d", mAf.ID, mAf.VSlot)
	}

	cases := map[int64]int64{
		0: 1, // A instance: vtable[f] == A.f
		1: 0, // B overrides: vtable[f] == B.f
		2: 1, // C inherits A.f: matches
		3: 0, // null receiver: guard fails safely
	}
	for arg, want := range cases {
		m := New(prog)
		v, err := m.Run(arg)
		if err != nil {
			t.Fatalf("Run(%d): %v", arg, err)
		}
		if v.I != want {
			t.Errorf("vteq with receiver %d = %d, want %d", arg, v.I, want)
		}
	}
}

func TestHaltUnwindsNestedCalls(t *testing.T) {
	pb := bytecode.NewProgramBuilder()
	inner := pb.NewFunc("inner", 0)
	inner.Emit(bytecode.OpHalt)
	inner.Emit(bytecode.OpReturnVoid)
	outer := pb.NewFunc("outer", 0)
	outer.CallStatic(inner)
	outer.Emit(bytecode.OpPop)
	outer.Const(7)
	outer.Emit(bytecode.OpReturn)
	main := pb.NewFunc("main", 0)
	main.CallStatic(outer)
	main.Emit(bytecode.OpReturn)
	pb.SetEntry(main)
	prog, err := pb.Link()
	if err != nil {
		t.Fatal(err)
	}
	m := New(prog)
	v, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.I != 0 {
		t.Errorf("halt should return 0, got %d", v.I)
	}
	if m.Depth() != 0 {
		t.Errorf("frames not unwound: depth %d", m.Depth())
	}
	// The VM remains usable after Halt.
	if _, err := m.Call(prog.MethodByName("$Globals.outer")); err != nil {
		t.Fatalf("VM unusable after halt: %v", err)
	}
}

func TestCallErrors(t *testing.T) {
	pb := bytecode.NewProgramBuilder()
	c := pb.NewClass("C", nil)
	virt := c.NewMethod("v", false, 1)
	virt.Const(0)
	virt.Emit(bytecode.OpReturn)
	f := pb.NewFunc("f", 2)
	f.Emit(bytecode.OpLoad, 0)
	f.Emit(bytecode.OpReturn)
	pb.SetEntry(f)
	prog, err := pb.Link()
	if err != nil {
		t.Fatal(err)
	}
	m := New(prog)
	if _, err := m.Call(prog.MethodByName("C.v"), IntV(1)); err == nil {
		t.Error("Call on virtual method should fail")
	}
	if _, err := m.Call(prog.MethodByName("$Globals.f"), IntV(1)); err == nil {
		t.Error("Call with wrong arity should fail")
	}
	if _, err := m.Static("nope"); err == nil {
		t.Error("Static with unknown name should fail")
	}
}

func TestTrapMessagesIncludeLocation(t *testing.T) {
	pb := bytecode.NewProgramBuilder()
	f := pb.NewFunc("boom", 0)
	f.Const(1)
	f.Const(0)
	f.Emit(bytecode.OpDiv)
	f.Emit(bytecode.OpReturn)
	pb.SetEntry(f)
	prog, _ := pb.Link()
	_, err := New(prog).Run()
	if err == nil {
		t.Fatal("expected trap")
	}
	if !strings.Contains(err.Error(), "$Globals.boom@2") {
		t.Errorf("trap should name method@pc: %v", err)
	}
}

func TestTimerDisabled(t *testing.T) {
	prog := buildShapes(t)
	m := New(prog)
	rec := &recordingProfiler{setOnTick: ControlAll}
	m.SetProfiler(rec)
	// No SetTimer: period 0 disables ticks entirely.
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if rec.ticks != 0 {
		t.Errorf("timer fired %d times with period 0", rec.ticks)
	}
}

// chargeOnTick charges a huge profiling cost inside a tick handler,
// which must fire the timer repeatedly (multiple missed deadlines) but
// never wedge the VM.
type chargeOnTick struct{ ticks int }

func (c *chargeOnTick) Name() string { return "charge-on-tick" }

func (c *chargeOnTick) OnTimerTick(m *VM) {
	c.ticks++
	if c.ticks < 3 {
		m.ChargeProfiling(250_000) // jump several periods ahead
	}
}

func TestTimerCatchesUpAfterLargeCharge(t *testing.T) {
	prog := buildShapes(t)
	m := New(prog)
	h := &chargeOnTick{}
	m.SetProfiler(h)
	m.SetTimer(100_000)
	if _, err := m.Run(2000); err != nil {
		t.Fatal(err)
	}
	if h.ticks < 5 {
		t.Errorf("timer did not catch up across skipped periods: %d ticks", h.ticks)
	}
}

func TestDeepRecursionGrowsStack(t *testing.T) {
	pb := bytecode.NewProgramBuilder()
	f := pb.NewFunc("down", 1)
	done := f.NewLabel()
	f.Emit(bytecode.OpLoad, 0)
	f.Branch(bytecode.OpJumpZ, done)
	f.Emit(bytecode.OpLoad, 0)
	f.Const(1)
	f.Emit(bytecode.OpSub)
	f.CallStatic(f)
	f.Emit(bytecode.OpReturn)
	f.Bind(done)
	f.Const(0)
	f.Emit(bytecode.OpReturn)
	pb.SetEntry(f)
	prog, err := pb.Link()
	if err != nil {
		t.Fatal(err)
	}
	m := New(prog)
	m.MaxSteps = 100_000_000
	if _, err := m.Run(100_000); err != nil {
		t.Fatalf("deep recursion failed: %v", err)
	}
	if m.Depth() != 0 {
		t.Errorf("depth = %d after return", m.Depth())
	}
}

func TestEpilogueYieldpointsDisabled(t *testing.T) {
	prog := buildShapes(t)
	m := New(prog)
	m.EpilogueYieldpoints = false
	m.ControlWord = ControlPrologues
	rec := &recordingProfiler{}
	m.SetProfiler(rec)
	if _, err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	if rec.yields[YieldEpilogue] != 0 {
		t.Errorf("epilogue yieldpoints taken despite being disabled: %d", rec.yields[YieldEpilogue])
	}
	if rec.yields[YieldPrologue] == 0 {
		t.Error("prologue yieldpoints should still fire")
	}
}

func TestYieldKindStrings(t *testing.T) {
	if YieldPrologue.String() != "prologue" || YieldEpilogue.String() != "epilogue" || YieldBackedge.String() != "backedge" {
		t.Error("yield kind names wrong")
	}
}

func TestWalkCallersSites(t *testing.T) {
	pb := bytecode.NewProgramBuilder()
	leaf := pb.NewFunc("leaf", 0)
	leaf.Const(1)
	leaf.Emit(bytecode.OpReturn)
	mid := pb.NewFunc("mid", 0)
	mid.CallStatic(leaf)
	mid.Emit(bytecode.OpReturn)
	main := pb.NewFunc("main", 0)
	main.CallStatic(mid)
	main.Emit(bytecode.OpReturn)
	pb.SetEntry(main)
	prog, err := pb.Link()
	if err != nil {
		t.Fatal(err)
	}
	var sites []int
	probe := walkSiteProbe{sites: &sites}
	m := New(prog)
	m.SetProfiler(probe)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// At leaf entry the stack is leaf(site for mid->leaf), mid(site for
	// main->mid), main(-1).
	if len(sites) != 3 || sites[2] != -1 || sites[0] < 0 || sites[1] < 0 {
		t.Errorf("sites = %v", sites)
	}
}

type walkSiteProbe struct{ sites *[]int }

func (w walkSiteProbe) Name() string { return "walk-site-probe" }

func (w walkSiteProbe) OnEntry(m *VM, meth *bytecode.Method) {
	if meth.Name != "$Globals.leaf" {
		return
	}
	m.WalkCallers(func(_ *bytecode.Method, site int) bool {
		*w.sites = append(*w.sites, site)
		return true
	})
}

func TestTraceHookSeesEveryInstruction(t *testing.T) {
	prog := buildShapes(t)
	m := New(prog)
	var traced uint64
	var firstMethod string
	m.Trace = func(meth *bytecode.Method, pc int, ins bytecode.Instr) {
		if traced == 0 {
			firstMethod = meth.Name
		}
		traced++
	}
	if _, err := m.Run(50); err != nil {
		t.Fatal(err)
	}
	if traced != m.Instrs {
		t.Errorf("trace saw %d instructions, VM executed %d", traced, m.Instrs)
	}
	if firstMethod != "$Globals.main" {
		t.Errorf("first traced method = %s", firstMethod)
	}
}

// TestStructTailIsCold keeps what run reads between sync points out of
// the VM's last cache line's worth of bytes: the allocator may put another
// VM right behind, and that one's counters, written at every span, share
// a line with whatever this one ends in (two VMs on two threads ran
// 10-35 % slower while spans sat there).
func TestStructTailIsCold(t *testing.T) {
	var m VM
	cold := unsafe.Sizeof(m) - 64
	for name, end := range map[string]uintptr{
		"spans":       unsafe.Offsetof(m.spans) + unsafe.Sizeof(m.spans),
		"quietReturn": unsafe.Offsetof(m.quietReturn) + unsafe.Sizeof(m.quietReturn),
		"deadline":    unsafe.Offsetof(m.deadline) + unsafe.Sizeof(m.deadline),
		"counter":     unsafe.Offsetof(m.counter) + unsafe.Sizeof(m.counter),
		"stack":       unsafe.Offsetof(m.stack) + unsafe.Sizeof(m.stack),
	} {
		if end > cold {
			t.Errorf("%s ends at byte %d of %d: within a cache line of the next object", name, end, unsafe.Sizeof(m))
		}
	}
}

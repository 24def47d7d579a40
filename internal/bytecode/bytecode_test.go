package bytecode

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildMinimal returns a linked program with one trivial entry method.
func buildMinimal(t *testing.T) *Program {
	t.Helper()
	pb := NewProgramBuilder()
	main := pb.NewFunc("main", 0)
	main.Const(0)
	main.Emit(OpReturn)
	pb.SetEntry(main)
	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

func TestLinkMinimal(t *testing.T) {
	p := buildMinimal(t)
	if p.Entry == nil || p.Entry.Name != "$Globals.main" {
		t.Fatalf("entry = %v", p.Entry)
	}
	if p.Entry.MaxStack != 1 {
		t.Errorf("MaxStack = %d, want 1", p.Entry.MaxStack)
	}
	if !p.Entry.Trivial {
		t.Errorf("two-instruction call-free body should be trivial")
	}
}

func TestLinkRequiresEntry(t *testing.T) {
	pb := NewProgramBuilder()
	f := pb.NewFunc("f", 0)
	f.Const(1)
	f.Emit(OpReturn)
	if _, err := pb.Link(); err == nil {
		t.Fatal("Link without entry should fail")
	}
}

func TestFieldFlattening(t *testing.T) {
	pb := NewProgramBuilder()
	a := pb.NewClass("A", nil)
	ax := a.AddField("x", false)
	b := pb.NewClass("B", a)
	by := b.AddField("y", false)
	c := pb.NewClass("C", b)
	cz := c.AddField("z", true)

	if ax != 0 || by != 1 || cz != 2 {
		t.Fatalf("field indices = %d,%d,%d want 0,1,2", ax, by, cz)
	}
	if got := c.FieldIndex("x"); got != 0 {
		t.Errorf("C.FieldIndex(x) = %d, want 0", got)
	}
	if got := c.FieldIndex("z"); got != 2 {
		t.Errorf("C.FieldIndex(z) = %d, want 2", got)
	}
	if got := a.FieldIndex("y"); got != -1 {
		t.Errorf("A.FieldIndex(y) = %d, want -1", got)
	}

	main := pb.NewFunc("main", 0)
	main.Const(0)
	main.Emit(OpReturn)
	pb.SetEntry(main)
	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	cc := p.ClassByName("C")
	if len(cc.Fields) != 3 {
		t.Fatalf("C has %d flattened fields, want 3", len(cc.Fields))
	}
	if cc.Fields[0].Name != "x" || cc.Fields[2].Name != "z" || !cc.Fields[2].Ref {
		t.Errorf("C fields = %+v", cc.Fields)
	}
}

func TestVTableOverride(t *testing.T) {
	pb := NewProgramBuilder()
	shape := pb.NewClass("Shape", nil)
	area := shape.NewMethod("area", false, 1)
	area.Const(0)
	area.Emit(OpReturn)
	name := shape.NewMethod("name", false, 1)
	name.Const(1)
	name.Emit(OpReturn)

	circle := pb.NewClass("Circle", shape)
	carea := circle.NewMethod("area", false, 1)
	carea.Const(42)
	carea.Emit(OpReturn)

	main := pb.NewFunc("main", 0)
	main.Emit(OpNew, 1) // Circle
	main.CallVirtual(shape, "area")
	main.Emit(OpReturn)
	pb.SetEntry(main)

	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	cs := p.ClassByName("Shape")
	cc := p.ClassByName("Circle")
	if len(cs.VTable) != 2 || len(cc.VTable) != 2 {
		t.Fatalf("vtable sizes = %d,%d want 2,2", len(cs.VTable), len(cc.VTable))
	}
	slotArea := p.MethodByName("Shape.area").VSlot
	slotName := p.MethodByName("Shape.name").VSlot
	if slotArea == slotName {
		t.Fatalf("area and name share slot %d", slotArea)
	}
	if cc.VTable[slotArea].Name != "Circle.area" {
		t.Errorf("Circle vtable[area] = %s, want Circle.area", cc.VTable[slotArea].Name)
	}
	if cc.VTable[slotName].Name != "Shape.name" {
		t.Errorf("Circle vtable[name] = %s, want inherited Shape.name", cc.VTable[slotName].Name)
	}
	// The virtual call site must carry the right slot and arity.
	call := p.Entry.Code[1]
	slot, nargs := DecodeVirtual(call.A)
	if slot != slotArea || nargs != 1 {
		t.Errorf("call encodes slot=%d nargs=%d, want %d,1", slot, nargs, slotArea)
	}
}

func TestOverrideArityMismatch(t *testing.T) {
	pb := NewProgramBuilder()
	a := pb.NewClass("A", nil)
	m := a.NewMethod("f", false, 1)
	m.Const(0)
	m.Emit(OpReturn)
	b := pb.NewClass("B", a)
	m2 := b.NewMethod("f", false, 2) // wrong arity
	m2.Const(0)
	m2.Emit(OpReturn)
	main := pb.NewFunc("main", 0)
	main.Const(0)
	main.Emit(OpReturn)
	pb.SetEntry(main)
	if _, err := pb.Link(); err == nil {
		t.Fatal("Link should reject override with different arity")
	}
}

func TestCallSiteIDsUniqueAndStable(t *testing.T) {
	pb := NewProgramBuilder()
	callee := pb.NewFunc("callee", 0)
	callee.Const(1)
	callee.Emit(OpReturn)

	main := pb.NewFunc("main", 0)
	main.CallStatic(callee)
	main.Emit(OpPop)
	main.CallStatic(callee)
	main.Emit(OpPop)
	main.Const(0)
	main.Emit(OpReturn)
	pb.SetEntry(main)
	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if len(p.Sites) != 2 {
		t.Fatalf("len(Sites) = %d, want 2", len(p.Sites))
	}
	s0 := p.Entry.Code[0].B
	s1 := p.Entry.Code[2].B
	if s0 == s1 {
		t.Errorf("two call sites share ID %d", s0)
	}
	if p.Sites[s0].Owner != p.Entry.ID || p.Sites[s1].PC != 2 {
		t.Errorf("site metadata wrong: owner=%d pc=%d", p.Sites[s0].Owner, p.Sites[s1].PC)
	}
	if !strings.Contains(p.SiteDescription(int(s1)), "$Globals.main@2") {
		t.Errorf("SiteDescription = %q", p.SiteDescription(int(s1)))
	}
}

func TestLabelsAndBranches(t *testing.T) {
	pb := NewProgramBuilder()
	f := pb.NewFunc("f", 1)
	loop := f.NewLabel()
	done := f.NewLabel()
	f.Bind(loop)
	f.Emit(OpLoad, 0)
	f.Branch(OpJumpZ, done)
	f.Emit(OpLoad, 0)
	f.Const(1)
	f.Emit(OpSub)
	f.Emit(OpStore, 0)
	f.Branch(OpJump, loop)
	f.Bind(done)
	f.Const(0)
	f.Emit(OpReturn)
	pb.SetEntry(f)
	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	code := p.Entry.Code
	if code[1].Op != OpJumpZ || int(code[1].A) != 7 {
		t.Errorf("jumpz target = %d, want 7", code[1].A)
	}
	if code[6].Op != OpJump || int(code[6].A) != 0 {
		t.Errorf("back jump target = %d, want 0", code[6].A)
	}
}

func TestUnboundLabelRejected(t *testing.T) {
	pb := NewProgramBuilder()
	f := pb.NewFunc("f", 0)
	l := f.NewLabel()
	f.Branch(OpJump, l)
	pb.SetEntry(f)
	if _, err := pb.Link(); err == nil {
		t.Fatal("Link should reject unbound label")
	}
}

func TestConstPoolForLargeValues(t *testing.T) {
	pb := NewProgramBuilder()
	f := pb.NewFunc("f", 0)
	big := int64(1) << 40
	f.Const(big)
	f.Const(big) // should reuse pool entry
	f.Emit(OpAdd)
	f.Emit(OpReturn)
	pb.SetEntry(f)
	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	m := p.Entry
	if len(m.Consts) != 1 || m.Consts[0] != big {
		t.Fatalf("consts = %v, want [%d]", m.Consts, big)
	}
	if m.Code[0].Op != OpConstL || m.Code[1].Op != OpConstL {
		t.Errorf("large consts should use OpConstL: %v %v", m.Code[0].Op, m.Code[1].Op)
	}
}

func TestVerifyCatchesUnderflow(t *testing.T) {
	p := buildMinimal(t)
	bad := &Method{Name: "bad", NArgs: 0, NLocals: 0, Code: []Instr{
		{Op: OpAdd}, // underflow: nothing on stack
		{Op: OpReturn},
	}}
	if err := Verify(p, bad); err == nil {
		t.Fatal("Verify should catch stack underflow")
	}
}

func TestVerifyCatchesInconsistentDepth(t *testing.T) {
	p := buildMinimal(t)
	// Path A reaches pc 3 with depth 1; path B with depth 2.
	bad := &Method{Name: "bad", NArgs: 1, NLocals: 1, Code: []Instr{
		{Op: OpLoad, A: 0},
		{Op: OpJumpZ, A: 4},
		{Op: OpConst, A: 1},
		{Op: OpConst, A: 2},
		{Op: OpReturn},
	}}
	if err := Verify(p, bad); err == nil {
		t.Fatal("Verify should catch inconsistent stack depth")
	}
}

func TestVerifyCatchesFallOffEnd(t *testing.T) {
	p := buildMinimal(t)
	bad := &Method{Name: "bad", NArgs: 0, NLocals: 0, Code: []Instr{
		{Op: OpConst, A: 1},
		{Op: OpPop},
	}}
	if err := Verify(p, bad); err == nil {
		t.Fatal("Verify should reject body that falls off the end")
	}
}

func TestVerifyCatchesBadJumpTarget(t *testing.T) {
	p := buildMinimal(t)
	bad := &Method{Name: "bad", NArgs: 0, NLocals: 0, Code: []Instr{
		{Op: OpJump, A: 99},
		{Op: OpReturnVoid},
	}}
	if err := Verify(p, bad); err == nil {
		t.Fatal("Verify should reject out-of-range jump")
	}
}

func TestVerifyCatchesBadLocal(t *testing.T) {
	p := buildMinimal(t)
	bad := &Method{Name: "bad", NArgs: 0, NLocals: 1, Code: []Instr{
		{Op: OpLoad, A: 5},
		{Op: OpReturn},
	}}
	if err := Verify(p, bad); err == nil {
		t.Fatal("Verify should reject out-of-range local")
	}
}

func TestVerifyMaxStack(t *testing.T) {
	pb := NewProgramBuilder()
	f := pb.NewFunc("f", 0)
	f.Const(1)
	f.Const(2)
	f.Const(3)
	f.Emit(OpAdd)
	f.Emit(OpAdd)
	f.Emit(OpReturn)
	pb.SetEntry(f)
	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if p.Entry.MaxStack != 3 {
		t.Errorf("MaxStack = %d, want 3", p.Entry.MaxStack)
	}
}

func TestEncodeDecodeVirtualRoundTrip(t *testing.T) {
	f := func(slot uint16, nargs uint8) bool {
		n := int(nargs)
		if n == 0 {
			n = 1
		}
		s, g := DecodeVirtual(EncodeVirtual(int(slot), n))
		return s == int(slot) && g == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDisasmMentionsTargets(t *testing.T) {
	pb := NewProgramBuilder()
	callee := pb.NewFunc("helper", 0)
	callee.Const(7)
	callee.Emit(OpReturn)
	main := pb.NewFunc("main", 0)
	main.CallStatic(callee)
	main.Emit(OpReturn)
	pb.SetEntry(main)
	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	out := DisasmProgram(p)
	if !strings.Contains(out, "callstatic $Globals.helper") {
		t.Errorf("disassembly missing symbolic call target:\n%s", out)
	}
	if !strings.Contains(out, "$Globals.main") {
		t.Errorf("disassembly missing method header:\n%s", out)
	}
}

func TestBackedgeAnnotation(t *testing.T) {
	pb := NewProgramBuilder()
	f := pb.NewFunc("f", 0)
	top := f.NewLabel()
	f.Bind(top)
	f.Emit(OpNop)
	f.Branch(OpJump, top)
	pb.SetEntry(f)
	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	out := DisasmMethod(p, p.Entry)
	if !strings.Contains(out, "backedge") {
		t.Errorf("backward jump should be annotated as backedge:\n%s", out)
	}
}

func TestSubclassOf(t *testing.T) {
	pb := NewProgramBuilder()
	a := pb.NewClass("A", nil)
	b := pb.NewClass("B", a)
	pb.NewClass("C", nil)
	main := pb.NewFunc("main", 0)
	main.Const(0)
	main.Emit(OpReturn)
	pb.SetEntry(main)
	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	_ = a
	_ = b
	ca, cb, cc := p.ClassByName("A"), p.ClassByName("B"), p.ClassByName("C")
	if !cb.SubclassOf(ca) || !cb.SubclassOf(cb) {
		t.Error("B should be a subclass of A and of itself")
	}
	if ca.SubclassOf(cb) || cc.SubclassOf(ca) {
		t.Error("unexpected subclass relations")
	}
}

func TestTrivialDetection(t *testing.T) {
	pb := NewProgramBuilder()
	callee := pb.NewFunc("tiny", 0)
	callee.Const(1)
	callee.Emit(OpReturn)

	caller := pb.NewFunc("withCall", 0)
	caller.CallStatic(callee)
	caller.Emit(OpReturn)

	big := pb.NewFunc("big", 0)
	for i := 0; i < TrivialSizeLimit; i++ {
		big.Emit(OpNop)
	}
	big.Const(0)
	big.Emit(OpReturn)

	pb.SetEntry(callee)
	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if !p.MethodByName("$Globals.tiny").Trivial {
		t.Error("tiny should be trivial")
	}
	if p.MethodByName("$Globals.withCall").Trivial {
		t.Error("method with a call must not be trivial")
	}
	if p.MethodByName("$Globals.big").Trivial {
		t.Error("oversized method must not be trivial")
	}
}

func TestStaticSlots(t *testing.T) {
	pb := NewProgramBuilder()
	s0 := pb.AddStatic("counter")
	s1 := pb.AddStatic("limit")
	if s0 != 0 || s1 != 1 {
		t.Fatalf("slots = %d,%d", s0, s1)
	}
	main := pb.NewFunc("main", 0)
	main.Const(5)
	main.Emit(OpPutStatic, int32(s1))
	main.Emit(OpGetStatic, int32(s1))
	main.Emit(OpReturn)
	pb.SetEntry(main)
	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if p.StaticSlot("limit") != 1 || p.StaticSlot("nope") != -1 {
		t.Errorf("StaticSlot lookups wrong")
	}
}

func TestVerifyRejectsStaticCallToVirtual(t *testing.T) {
	pb := NewProgramBuilder()
	c := pb.NewClass("C", nil)
	v := c.NewMethod("v", false, 1)
	v.Const(0)
	v.Emit(OpReturn)
	main := pb.NewFunc("main", 0)
	main.Const(0)
	main.Emit(OpReturn)
	pb.SetEntry(main)
	p, err := pb.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	vm := p.MethodByName("C.v")
	bad := &Method{Name: "bad", NArgs: 1, NLocals: 1, Code: []Instr{
		{Op: OpLoad, A: 0},
		{Op: OpCallStatic, A: int32(vm.ID)},
		{Op: OpReturn},
	}}
	if err := Verify(p, bad); err == nil {
		t.Fatal("Verify should reject callstatic to a virtual method")
	}
}

package bytecode

import (
	"fmt"
	"sort"
)

// ProgramBuilder assembles a Program from classes, methods, and
// instructions. Both the MJ compiler back end and hand-written tests
// use it. Typical usage:
//
//	pb := bytecode.NewProgramBuilder()
//	c := pb.NewClass("Counter", nil)
//	c.AddField("n", false)
//	inc := c.NewMethod("inc", false, 1)
//	inc.Emit(OpLoad, 0) ... inc.Emit(OpReturnVoid)
//	main := pb.NewFunc("main", 0)
//	...
//	pb.SetEntry(main)
//	prog, err := pb.Link()
type ProgramBuilder struct {
	classes    []*ClassBuilder
	statics    []string
	staticInit []int64
	entry      *MethodBuilder
	funcs      *ClassBuilder // synthetic holder for free functions
}

// NewProgramBuilder returns an empty builder.
func NewProgramBuilder() *ProgramBuilder {
	pb := &ProgramBuilder{}
	pb.funcs = pb.NewClass("$Globals", nil)
	return pb
}

// NewClass declares a class. super may be nil for a root class.
func (pb *ProgramBuilder) NewClass(name string, super *ClassBuilder) *ClassBuilder {
	cb := &ClassBuilder{pb: pb, name: name, super: super, id: len(pb.classes)}
	pb.classes = append(pb.classes, cb)
	return cb
}

// AddStatic declares a module-level global slot and returns its index.
func (pb *ProgramBuilder) AddStatic(name string) int {
	pb.statics = append(pb.statics, name)
	pb.staticInit = append(pb.staticInit, 0)
	return len(pb.statics) - 1
}

// AddStaticInit declares a global slot with a constant integer initial
// value, applied by the VM before execution starts.
func (pb *ProgramBuilder) AddStaticInit(name string, init int64) int {
	i := pb.AddStatic(name)
	pb.staticInit[i] = init
	return i
}

// NewFunc declares a free (static, classless) function with nargs
// parameters. It is hosted on a synthetic $Globals class.
func (pb *ProgramBuilder) NewFunc(name string, nargs int) *MethodBuilder {
	return pb.funcs.NewMethod(name, true, nargs)
}

// SetEntry marks the program's entry point; it must be static.
func (pb *ProgramBuilder) SetEntry(m *MethodBuilder) { pb.entry = m }

// ClassBuilder accumulates the fields and methods of one class.
type ClassBuilder struct {
	pb      *ProgramBuilder
	name    string
	super   *ClassBuilder
	fields  []FieldDef
	methods []*MethodBuilder
	id      int

	linked *Class // set during Link
}

// Name returns the class name.
func (cb *ClassBuilder) Name() string { return cb.name }

// ID returns the class ID the linked Class will carry (assigned in
// declaration order); use it for OpNew and OpClassEq operands.
func (cb *ClassBuilder) ID() int { return cb.id }

// AddField appends a field declared directly by this class and returns
// its flattened index (inherited fields come first).
func (cb *ClassBuilder) AddField(name string, ref bool) int {
	cb.fields = append(cb.fields, FieldDef{Name: name, Ref: ref})
	return cb.inheritedFieldCount() + len(cb.fields) - 1
}

func (cb *ClassBuilder) inheritedFieldCount() int {
	n := 0
	for s := cb.super; s != nil; s = s.super {
		n += len(s.fields)
	}
	return n
}

// FieldIndex returns the flattened index of the named field, searching
// the inheritance chain, or -1 if absent.
func (cb *ClassBuilder) FieldIndex(name string) int {
	if cb.super != nil {
		if i := cb.super.FieldIndex(name); i >= 0 {
			return i
		}
	}
	base := cb.inheritedFieldCount()
	for i, f := range cb.fields {
		if f.Name == name {
			return base + i
		}
	}
	return -1
}

// NewMethod declares a method on this class. For virtual methods
// (static == false) nargs must count the receiver.
func (cb *ClassBuilder) NewMethod(name string, static bool, nargs int) *MethodBuilder {
	mb := &MethodBuilder{
		cb:      cb,
		name:    name,
		static:  static,
		nargs:   nargs,
		nlocals: nargs,
	}
	cb.methods = append(cb.methods, mb)
	return mb
}

type labelPatch struct {
	pc    int
	label int
}

type callRef struct {
	pc      int
	static  *MethodBuilder // static target, or nil for virtual/closure
	recv    *ClassBuilder  // virtual: static receiver class
	virtual string         // virtual: method name
	closure bool           // closure call: A (arity) already emitted, only the site ID is assigned
}

// closureRef records an OpMakeClosure whose target method ID is
// resolved at link time.
type closureRef struct {
	pc     int
	target *MethodBuilder
}

// MethodBuilder accumulates the body of one method.
type MethodBuilder struct {
	cb      *ClassBuilder
	name    string
	static  bool
	nargs   int
	nlocals int
	code     []Instr
	consts   []int64
	labels   []int // label -> bound pc, or -1
	patches  []labelPatch
	calls    []callRef
	closures []closureRef

	linked *Method // set during Link
}

// QualifiedName returns "Class.method".
func (mb *MethodBuilder) QualifiedName() string { return mb.cb.name + "." + mb.name }

// PC returns the index the next emitted instruction will occupy.
func (mb *MethodBuilder) PC() int { return len(mb.code) }

// AllocLocal reserves a fresh local slot and returns its index.
func (mb *MethodBuilder) AllocLocal() int {
	i := mb.nlocals
	mb.nlocals++
	return i
}

// Emit appends an instruction with operand A (B is zero).
func (mb *MethodBuilder) Emit(op Opcode, operands ...int32) {
	var a, b int32
	if len(operands) > 0 {
		a = operands[0]
	}
	if len(operands) > 1 {
		b = operands[1]
	}
	mb.code = append(mb.code, Instr{Op: op, A: a, B: b})
}

// Const pushes v, using OpConst when it fits in an int32 and the
// constant pool otherwise.
func (mb *MethodBuilder) Const(v int64) {
	if int64(int32(v)) == v {
		mb.Emit(OpConst, int32(v))
		return
	}
	for i, c := range mb.consts {
		if c == v {
			mb.Emit(OpConstL, int32(i))
			return
		}
	}
	mb.consts = append(mb.consts, v)
	mb.Emit(OpConstL, int32(len(mb.consts)-1))
}

// NewLabel creates an unbound label.
func (mb *MethodBuilder) NewLabel() int {
	mb.labels = append(mb.labels, -1)
	return len(mb.labels) - 1
}

// Bind attaches label to the current pc.
func (mb *MethodBuilder) Bind(label int) {
	if mb.labels[label] != -1 {
		panic(fmt.Sprintf("%s: label %d bound twice", mb.QualifiedName(), label))
	}
	mb.labels[label] = len(mb.code)
}

// Branch emits a jump to label; the target is patched at link time.
func (mb *MethodBuilder) Branch(op Opcode, label int) {
	if !op.IsBranch() {
		panic(fmt.Sprintf("Branch with non-branch opcode %v", op))
	}
	mb.patches = append(mb.patches, labelPatch{pc: len(mb.code), label: label})
	mb.Emit(op, -1)
}

// CallStatic emits a static call to target (the call-site ID is
// assigned at link time).
func (mb *MethodBuilder) CallStatic(target *MethodBuilder) {
	mb.calls = append(mb.calls, callRef{pc: len(mb.code), static: target})
	mb.Emit(OpCallStatic, -1, -1)
}

// CallVirtual emits a virtual call of the named method on a receiver
// whose static class is recv. Vtable slots are resolved at link time.
func (mb *MethodBuilder) CallVirtual(recv *ClassBuilder, method string) {
	mb.calls = append(mb.calls, callRef{pc: len(mb.code), recv: recv, virtual: method})
	mb.Emit(OpCallVirtual, -1, -1)
}

// MakeClosure emits an OpMakeClosure over target (a static method whose
// argument 0 is the closure itself) capturing the top ncaps stack
// values. The target's method ID is resolved at link time.
func (mb *MethodBuilder) MakeClosure(target *MethodBuilder, ncaps int) {
	mb.closures = append(mb.closures, closureRef{pc: len(mb.code), target: target})
	mb.Emit(OpMakeClosure, -1, int32(ncaps))
}

// CallClosure emits a closure call with nargs arguments on the stack,
// the closure itself first (it becomes the callee's argument 0). The
// call-site ID is assigned at link time.
func (mb *MethodBuilder) CallClosure(nargs int) {
	mb.calls = append(mb.calls, callRef{pc: len(mb.code), closure: true})
	mb.Emit(OpCallClosure, int32(nargs), -1)
}

// TrivialSizeLimit is the body size (in instructions) at or below which
// a call-free method is considered trivial — smaller than a calling
// sequence — and is inlined even at the lowest optimization level, as
// in the paper's accuracy-experiment baseline.
const TrivialSizeLimit = 8

// Link resolves labels, vtable slots, and call targets; assigns class,
// method, and call-site IDs; verifies every method; and returns the
// executable Program.
func (pb *ProgramBuilder) Link() (*Program, error) {
	prog := &Program{
		NumStatics:  len(pb.statics),
		StaticNames: append([]string(nil), pb.statics...),
		StaticInit:  append([]int64(nil), pb.staticInit...),
	}

	// Pass 1: create classes with flattened fields.
	for id, cb := range pb.classes {
		cls := &Class{ID: id, Name: cb.name}
		cb.linked = cls
		prog.Classes = append(prog.Classes, cls)
	}
	for _, cb := range pb.classes {
		cls := cb.linked
		if cb.super != nil {
			if cb.super.linked == nil {
				return nil, fmt.Errorf("class %s: superclass %s not declared via this builder", cb.name, cb.super.name)
			}
			cls.Super = cb.super.linked
		}
	}
	// Fields must be flattened superclass-first; process in topological
	// order (parents before children).
	var flatten func(cb *ClassBuilder) []FieldDef
	flatten = func(cb *ClassBuilder) []FieldDef {
		if cb.super == nil {
			return append([]FieldDef(nil), cb.fields...)
		}
		return append(flatten(cb.super), cb.fields...)
	}
	for _, cb := range pb.classes {
		cb.linked.Fields = flatten(cb)
	}

	// Pass 2: vtable slot assignment. Slots are assigned per hierarchy
	// root over the union of virtual method names, in deterministic
	// (sorted) order; overrides share the slot of the method they
	// override.
	type hierarchy struct {
		root  *ClassBuilder
		slots map[string]int
	}
	rootOf := func(cb *ClassBuilder) *ClassBuilder {
		for cb.super != nil {
			cb = cb.super
		}
		return cb
	}
	hiers := map[*ClassBuilder]*hierarchy{}
	for _, cb := range pb.classes {
		r := rootOf(cb)
		h := hiers[r]
		if h == nil {
			h = &hierarchy{root: r, slots: map[string]int{}}
			hiers[r] = h
		}
		for _, mb := range cb.methods {
			if !mb.static {
				if _, ok := h.slots[mb.name]; !ok {
					h.slots[mb.name] = -1 // placeholder; numbered below
				}
			}
		}
	}
	for _, h := range hiers {
		names := make([]string, 0, len(h.slots))
		for n := range h.slots {
			names = append(names, n)
		}
		sort.Strings(names)
		for i, n := range names {
			h.slots[n] = i
		}
	}

	// Pass 3: create Method objects and assign IDs (class declaration
	// order, then method declaration order — deterministic).
	for _, cb := range pb.classes {
		for _, mb := range cb.methods {
			m := &Method{
				ID:      len(prog.Methods),
				Name:    mb.QualifiedName(),
				Class:   cb.linked,
				Static:  mb.static,
				VSlot:   -1,
				NArgs:   mb.nargs,
				NLocals: mb.nlocals,
				Consts:  append([]int64(nil), mb.consts...),
			}
			if !mb.static {
				if mb.nargs < 1 {
					return nil, fmt.Errorf("%s: virtual method needs a receiver argument", m.Name)
				}
				m.VSlot = hiers[rootOf(cb)].slots[mb.name]
			}
			mb.linked = m
			prog.Methods = append(prog.Methods, m)
			cb.linked.Methods = append(cb.linked.Methods, m)
		}
	}

	// Pass 4: build vtables: inherit the superclass's table, then
	// overlay methods declared here. Parents must be processed first;
	// iterate until every class is done (hierarchies are acyclic by
	// construction since super links come from earlier builder calls).
	done := map[*ClassBuilder]bool{}
	var buildVT func(cb *ClassBuilder) error
	buildVT = func(cb *ClassBuilder) error {
		if done[cb] {
			return nil
		}
		h := hiers[rootOf(cb)]
		vt := make([]*Method, len(h.slots))
		if cb.super != nil {
			if err := buildVT(cb.super); err != nil {
				return err
			}
			copy(vt, cb.super.linked.VTable)
		}
		for _, mb := range cb.methods {
			if mb.static {
				continue
			}
			slot := h.slots[mb.name]
			if prev := vt[slot]; prev != nil && prev.NArgs != mb.nargs {
				return fmt.Errorf("%s overrides %s with different arity (%d vs %d)",
					mb.QualifiedName(), prev.Name, mb.nargs, prev.NArgs)
			}
			vt[slot] = mb.linked
		}
		cb.linked.VTable = vt
		done[cb] = true
		return nil
	}
	for _, cb := range pb.classes {
		if err := buildVT(cb); err != nil {
			return nil, err
		}
	}

	// Pass 5: finalize method bodies — patch labels, resolve calls,
	// assign global call-site IDs in deterministic order.
	for _, cb := range pb.classes {
		for _, mb := range cb.methods {
			code := append([]Instr(nil), mb.code...)
			for _, p := range mb.patches {
				t := mb.labels[p.label]
				if t < 0 {
					return nil, fmt.Errorf("%s: unbound label %d", mb.QualifiedName(), p.label)
				}
				code[p.pc].A = int32(t)
			}
			for _, c := range mb.closures {
				if c.target.linked == nil {
					return nil, fmt.Errorf("%s: makeclosure over unlinked method %s", mb.QualifiedName(), c.target.QualifiedName())
				}
				if !c.target.static {
					return nil, fmt.Errorf("%s: makeclosure over virtual method %s", mb.QualifiedName(), c.target.QualifiedName())
				}
				code[c.pc].A = int32(c.target.linked.ID)
			}
			for _, c := range mb.calls {
				code[c.pc].B = int32(len(prog.Sites))
				prog.Sites = append(prog.Sites, Site{Owner: mb.linked.ID, PC: c.pc})
				if c.closure {
					// A (the arity) was emitted inline; only the site ID
					// above needed assignment.
				} else if c.static != nil {
					if c.static.linked == nil {
						return nil, fmt.Errorf("%s: call to unlinked method %s", mb.QualifiedName(), c.static.QualifiedName())
					}
					if !c.static.static {
						return nil, fmt.Errorf("%s: CallStatic to virtual method %s", mb.QualifiedName(), c.static.QualifiedName())
					}
					code[c.pc].A = int32(c.static.linked.ID)
				} else {
					h := hiers[rootOf(c.recv)]
					slot, ok := h.slots[c.virtual]
					if !ok {
						return nil, fmt.Errorf("%s: virtual method %s not found on %s", mb.QualifiedName(), c.virtual, c.recv.name)
					}
					// The receiver's hierarchy must actually define the
					// method somewhere on the receiver's chain.
					found := false
					for x := c.recv; x != nil; x = x.super {
						for _, m := range x.methods {
							if !m.static && m.name == c.virtual {
								found = true
							}
						}
					}
					if !found {
						return nil, fmt.Errorf("%s: class %s does not declare or inherit %s", mb.QualifiedName(), c.recv.name, c.virtual)
					}
					nargs := -1
					for x := c.recv; x != nil && nargs < 0; x = x.super {
						for _, m := range x.methods {
							if !m.static && m.name == c.virtual {
								nargs = m.nargs
								break
							}
						}
					}
					code[c.pc].A = EncodeVirtual(slot, nargs)
				}
			}
			m := mb.linked
			m.Code = code
			m.Size = len(code)
			m.Trivial = isTrivial(code)
		}
	}

	if pb.entry == nil {
		return nil, fmt.Errorf("no entry point set")
	}
	if !pb.entry.static {
		return nil, fmt.Errorf("entry point %s must be static", pb.entry.QualifiedName())
	}
	prog.Entry = pb.entry.linked

	// Pass 6: verify everything.
	for _, m := range prog.Methods {
		if err := Verify(prog, m); err != nil {
			return nil, fmt.Errorf("verify %s: %w", m.Name, err)
		}
	}
	return prog, nil
}

// isTrivial reports whether a body is call-free and at most
// TrivialSizeLimit instructions (smaller than a calling sequence).
func isTrivial(code []Instr) bool {
	if len(code) > TrivialSizeLimit {
		return false
	}
	for _, ins := range code {
		if ins.Op.IsCall() {
			return false
		}
	}
	return true
}

package mj

import (
	"fmt"
)

// This file implements a reference interpreter that executes the
// *checked AST*, independent of the bytecode compiler and the VM. It
// exists for differential testing: a random well-typed program must
// compute the same results under (a) this interpreter, (b) the bytecode
// compiler + VM, and (c) the bytecode compiler + VM after inlining. Any
// divergence pinpoints a bug in codegen, the VM, or the inliner.
//
// It works in two phases. NewRefInterp walks the checked AST once and
// resolves every statement into a Go closure and every expression into
// an operand (a local or literal its parent reads in place, or a
// closure), choosing each operator and identifier kind there, laying
// out each class's fields by its own walk of Super and Fields, and
// giving each virtual call site a table from receiver class to method,
// filled by lookupMethod on the site's name. CallFunction then runs the
// closures.
// It shares only the lexer, parser and checker with the compiler.

// maxRefDepth bounds the MJ call depth, so that runaway recursion is an
// error instead of exhausting Go's 1 GB goroutine stack (a fatal error
// no recover sees); the VM's counterpart is its shared stack,
// maxStackSlots in internal/vm. Two measurements chose it (go1.24,
// amd64). A call costs the Go stack 456 bytes in plain self-recursion
// and 550–1170 bytes at the median of each suite program, 1512 at most.
// The deepest recursion any suite program reaches is 83 calls (closures
// at the large input; 23 at the small one), and any generated program 6
// (GenerateShaped seeds 0–199 at sizes 3–6 in every shape, and
// GenerateWorkload). So the bound is over 100× the deepest real program
// and costs at most ~15 MB of Go stack at the measured rates.
const maxRefDepth = 10_000

// refValue is a runtime value: int/boolean in i, object or array in o.
type refValue struct {
	i int64
	o *refObject
}

// refObject is a heap object: a class instance (class set, its fields in
// slots), an array (its elements in slots) or a closure (fn set, its
// captures in slots).
type refObject struct {
	class *refClass
	fn    *refMethod
	slots []refValue
}

// refClass is a class as the interpreter lays it out: its id indexes
// the virtual call sites' tables, and an instance has one slot per field
// of the class and its ancestors.
type refClass struct {
	decl   *ClassDecl
	id     int
	fields int
}

// refMethod is a method, constructor, free function or lambda resolved
// into closures. With this set, local 0 holds the receiver (for a
// lambda, the closure itself) and the arguments follow.
type refMethod struct {
	locals int
	this   bool
	body   stmtFn
}

type refCtrl int

const (
	refNone refCtrl = iota
	refReturn
	refBreak
	refContinue
)

// A frame is a method's locals, a window of the interpreter's stack.
type (
	exprFn func(fr []refValue) refValue
	stmtFn func(fr []refValue) refCtrl
)

// An operand is an expression as its parent reads it. A local (this is
// local 0) or a literal is a leaf the parent reads in place, with no
// call; any other expression is a closure.
type operand struct {
	fn   exprFn   // nil for a leaf
	slot int      // a leaf local's slot, or -1 for a literal
	v    refValue // a literal's value
}

// get reads the operand. It is just small enough for the compiler to
// inline into every parent (cost 80 of 80 at go1.24): a third leaf kind
// would put a call back on every read.
func (o operand) get(fr []refValue) refValue {
	if o.fn != nil {
		return o.fn(fr)
	}
	if o.slot >= 0 {
		return fr[o.slot]
	}
	return o.v
}

// literal is an operand that always reads v.
func literal(v refValue) operand { return operand{slot: -1, v: v} }

// refTrap carries a run-time error from the closure that raised it to
// CallFunction.
type refTrap struct{ err error }

// RefInterp evaluates checked MJ programs.
type RefInterp struct {
	prog    *Program
	methods map[*MethodDecl]*refMethod
	globals []refValue
	fuel    int64

	// stack holds every live frame; a call takes its frame from the top,
	// so a call allocates nothing once the stack has grown.
	stack []refValue
	sp    int
	depth int
	ret   refValue // the value the last return statement set

	// Output accumulates print() values, like vm.VM.Output.
	Output []int64
}

// NewRefInterp prepares an interpreter for a *checked* program (Check
// must have succeeded; the interpreter trusts resolution annotations).
// fuel bounds the number of statements executed and invocations made:
// each burns one unit, and expressions burn nothing. That still cuts off
// every runaway run: each loop iteration runs its body statement (MJ has
// no empty statement), each recursion is an invocation, and an
// expression without a call is finite.
func NewRefInterp(prog *Program, fuel int64) *RefInterp {
	in := &RefInterp{
		prog:    prog,
		methods: map[*MethodDecl]*refMethod{},
		globals: make([]refValue, len(prog.Globals)),
		fuel:    fuel,
		stack:   make([]refValue, 256),
	}
	for _, g := range prog.Globals {
		if g.Init != nil {
			in.globals[g.Slot] = refValue{i: *g.Init}
		}
	}
	c := &refCompiler{in: in, classes: map[*ClassDecl]*refClass{}, fieldSlot: map[*FieldDecl]int{}}
	decls := append([]*MethodDecl(nil), prog.Funcs...)
	for i, cd := range prog.Classes {
		cl := &refClass{decl: cd, id: i}
		for x := cd.Super; x != nil; x = x.Super {
			cl.fields += len(x.Fields)
		}
		for j, f := range cd.Fields {
			c.fieldSlot[f] = cl.fields + j
		}
		cl.fields += len(cd.Fields)
		c.classes[cd] = cl
		c.order = append(c.order, cl)
		decls = append(append(decls, cd.Methods...), cd.Ctors...)
	}
	for _, m := range decls {
		in.methods[m] = &refMethod{locals: m.NumLocals, this: hasThis(m)}
	}
	for _, m := range decls {
		in.methods[m].body = c.stmt(m.Body)
	}
	return in
}

// CallFunction runs a free function by name with integer arguments.
func (in *RefInterp) CallFunction(name string, args ...int64) (result int64, err error) {
	var fn *MethodDecl
	for _, f := range in.prog.Funcs {
		if f.Name == name {
			fn = f
		}
	}
	if fn == nil {
		return 0, fmt.Errorf("no function %s", name)
	}
	if len(args) != len(fn.Params) {
		return 0, fmt.Errorf("%s takes %d args", name, len(fn.Params))
	}
	defer func() {
		if r := recover(); r != nil {
			t, ok := r.(refTrap)
			if !ok {
				panic(r)
			}
			result, err = 0, t.err
		}
	}()
	in.sp, in.depth = 0, 0
	base := in.reserve(len(args))
	for i, a := range args {
		in.stack[base+i] = refValue{i: a}
	}
	return in.call(in.methods[fn], base, refValue{}).i, nil
}

func (in *RefInterp) trap(format string, args ...any) {
	panic(refTrap{fmt.Errorf(format, args...)})
}

func (in *RefInterp) burn() {
	in.fuel--
	if in.fuel < 0 {
		in.trap("reference interpreter out of fuel")
	}
}

// reserve takes n slots from the top of the stack and returns the first.
// A grown stack is a new array: frames already taken keep the old one.
func (in *RefInterp) reserve(n int) int {
	base := in.sp
	in.sp += n
	if in.sp > len(in.stack) {
		grown := make([]refValue, 2*in.sp)
		copy(grown, in.stack)
		in.stack = grown
	}
	return base
}

// args starts a callee's frame: it evaluates the arguments into the
// stack after skip slots (1 for a receiver or closure in local 0) and
// returns the frame's base.
func (in *RefInterp) args(args []operand, fr []refValue, skip int) int {
	base := in.reserve(skip + len(args))
	for j, a := range args {
		v := a.get(fr)
		in.stack[base+skip+j] = v
	}
	return base
}

// call runs m on the frame args started at base, with this in local 0
// when m has a receiver.
func (in *RefInterp) call(m *refMethod, base int, this refValue) refValue {
	in.burn()
	if in.depth == maxRefDepth {
		in.trap("reference interpreter call depth exceeds %d", maxRefDepth)
	}
	filled := in.sp - base
	in.sp = base
	in.reserve(m.locals)
	fr := in.stack[base:in.sp:in.sp]
	clear(fr[filled:])
	if m.this {
		fr[0] = this
	}
	in.depth++
	ctrl := m.body(fr)
	in.depth--
	in.sp = base
	if ctrl == refReturn {
		return in.ret
	}
	return refValue{} // void fall-through
}

// refCompiler holds what preparation resolves once: the classes' ids and
// layouts and each field's slot. Every statement closure it builds burns
// one unit of fuel before anything else, and call burns one per
// invocation: the fuel rule.
type refCompiler struct {
	in        *RefInterp
	classes   map[*ClassDecl]*refClass
	order     []*refClass
	fieldSlot map[*FieldDecl]int
}

func (c *refCompiler) stmt(s Stmt) stmtFn {
	in := c.in
	switch s := s.(type) {
	case *Block:
		stmts := make([]stmtFn, len(s.Stmts))
		for i, st := range s.Stmts {
			stmts[i] = c.stmt(st)
		}
		if len(stmts) == 1 {
			st := stmts[0]
			return func(fr []refValue) refCtrl { in.burn(); return st(fr) }
		}
		return func(fr []refValue) refCtrl {
			in.burn()
			for _, st := range stmts {
				if ctrl := st(fr); ctrl != refNone {
					return ctrl
				}
			}
			return refNone
		}

	case *VarDeclStmt:
		slot, init := s.Slot, literal(refValue{})
		if s.Init != nil {
			init = c.expr(s.Init)
		}
		return func(fr []refValue) refCtrl { in.burn(); fr[slot] = init.get(fr); return refNone }

	case *AssignStmt:
		return c.assign(s)

	case *ExprStmt:
		e := c.expr(s.E)
		return func(fr []refValue) refCtrl { in.burn(); e.get(fr); return refNone }

	case *IfStmt:
		cond, then := c.expr(s.Cond), c.stmt(s.Then)
		if s.Else == nil {
			return func(fr []refValue) refCtrl {
				in.burn()
				if cond.get(fr).i != 0 {
					return then(fr)
				}
				return refNone
			}
		}
		els := c.stmt(s.Else)
		return func(fr []refValue) refCtrl {
			in.burn()
			if cond.get(fr).i != 0 {
				return then(fr)
			}
			return els(fr)
		}

	case *WhileStmt:
		cond, body := c.expr(s.Cond), c.stmt(s.Body)
		return func(fr []refValue) refCtrl {
			in.burn()
			for cond.get(fr).i != 0 {
				ctrl := body(fr)
				if ctrl == refReturn {
					return refReturn
				}
				if ctrl == refBreak {
					break
				}
			}
			return refNone
		}

	case *ForStmt:
		var init, post stmtFn
		cond := literal(truth(true))
		if s.Init != nil {
			init = c.stmt(s.Init)
		}
		if s.Cond != nil {
			cond = c.expr(s.Cond)
		}
		if s.Post != nil {
			post = c.stmt(s.Post)
		}
		body := c.stmt(s.Body)
		return func(fr []refValue) refCtrl {
			in.burn()
			if init != nil {
				init(fr)
			}
			for cond.get(fr).i != 0 {
				ctrl := body(fr)
				if ctrl == refReturn {
					return refReturn
				}
				if ctrl == refBreak {
					break
				}
				if post != nil {
					post(fr)
				}
			}
			return refNone
		}

	case *ReturnStmt:
		e := literal(refValue{})
		if s.E != nil {
			e = c.expr(s.E)
		}
		return func(fr []refValue) refCtrl { in.burn(); in.ret = e.get(fr); return refReturn }

	case *BreakStmt:
		return func(fr []refValue) refCtrl { in.burn(); return refBreak }
	case *ContinueStmt:
		return func(fr []refValue) refCtrl { in.burn(); return refContinue }

	case *PrintStmt:
		e := c.expr(s.E)
		return func(fr []refValue) refCtrl { in.burn(); in.Output = append(in.Output, e.get(fr).i); return refNone }

	case *SuperCallStmt:
		args, target := c.exprs(s.Args), in.methods[s.Target]
		return func(fr []refValue) refCtrl {
			in.burn()
			base := in.args(args, fr, 1)
			in.call(target, base, fr[0])
			return refNone
		}
	}
	return func(fr []refValue) refCtrl {
		in.burn()
		in.trap("reference interpreter: unknown statement %T", s)
		return refNone
	}
}

// assign evaluates a target's object and index, then the value, then
// checks and stores.
func (c *refCompiler) assign(s *AssignStmt) stmtFn {
	in, rhs := c.in, c.expr(s.RHS)
	switch lhs := s.LHS.(type) {
	case *Ident:
		slot := lhs.Slot
		switch lhs.Kind {
		case IdentLocal:
			return func(fr []refValue) refCtrl { in.burn(); fr[slot] = rhs.get(fr); return refNone }
		case IdentGlobal:
			return func(fr []refValue) refCtrl { in.burn(); in.globals[slot] = rhs.get(fr); return refNone }
		case IdentField:
			slot = c.fieldSlot[lhs.Field]
			return func(fr []refValue) refCtrl {
				in.burn()
				v := rhs.get(fr)
				if fr[0].o == nil {
					in.trap("nil this")
				}
				fr[0].o.slots[slot] = v
				return refNone
			}
		case IdentCapture:
			return func(fr []refValue) refCtrl { in.burn(); v := rhs.get(fr); fr[0].o.slots[slot] = v; return refNone }
		}
		return func(fr []refValue) refCtrl { in.burn(); rhs.get(fr); return refNone }
	case *FieldAccess:
		x, slot := c.expr(lhs.X), c.fieldSlot[lhs.Field]
		return func(fr []refValue) refCtrl {
			in.burn()
			obj, v := x.get(fr), rhs.get(fr)
			if obj.o == nil {
				in.trap("field store on null")
			}
			obj.o.slots[slot] = v
			return refNone
		}
	case *Index:
		arr, idx := c.expr(lhs.Arr), c.expr(lhs.Idx)
		return func(fr []refValue) refCtrl {
			in.burn()
			a, i, v := arr.get(fr), idx.get(fr).i, rhs.get(fr)
			if a.o == nil {
				in.trap("index store on null")
			}
			if i < 0 || i >= int64(len(a.o.slots)) {
				in.trap("index %d out of range", i)
			}
			a.o.slots[i] = v
			return refNone
		}
	}
	return func(fr []refValue) refCtrl { in.burn(); in.trap("bad assignment target %T", s.LHS); return refNone }
}

// read is an identifier's or a capture's value: a local in place, any
// other kind one closure.
func (c *refCompiler) read(kind IdentKind, slot int, field *FieldDecl, name string) operand {
	in := c.in
	switch kind {
	case IdentLocal:
		return operand{slot: slot}
	case IdentGlobal:
		return operand{fn: func(fr []refValue) refValue { return in.globals[slot] }}
	case IdentField:
		slot = c.fieldSlot[field]
		return operand{fn: func(fr []refValue) refValue {
			if fr[0].o == nil {
				in.trap("nil this")
			}
			return fr[0].o.slots[slot]
		}}
	case IdentCapture:
		return operand{fn: func(fr []refValue) refValue { return fr[0].o.slots[slot] }}
	}
	return operand{fn: func(fr []refValue) refValue { in.trap("unresolved ident %s", name); return refValue{} }}
}

func (c *refCompiler) expr(e Expr) operand {
	in := c.in
	switch e := e.(type) {
	case *IntLit:
		return literal(refValue{i: e.V})
	case *BoolLit:
		return literal(truth(e.V))
	case *NullLit:
		return literal(refValue{})
	case *ThisExpr:
		return operand{slot: 0}
	case *Ident:
		return c.read(e.Kind, e.Slot, e.Field, e.Name)
	case *Unary:
		x := c.expr(e.X)
		if e.Op == TokBang {
			return operand{fn: func(fr []refValue) refValue { v := x.get(fr); return truth(v.i == 0 && v.o == nil) }}
		}
		return operand{fn: func(fr []refValue) refValue { return refValue{i: -x.get(fr).i} }}
	case *Binary:
		return operand{fn: c.binary(e)}
	case *InstanceOf:
		x, class := c.expr(e.X), e.Class
		return operand{fn: func(fr []refValue) refValue {
			v := x.get(fr)
			return truth(v.o != nil && v.o.class != nil && v.o.class.decl.HasAncestor(class))
		}}
	case *Cast:
		x, class := c.expr(e.X), e.Class
		return operand{fn: func(fr []refValue) refValue {
			v := x.get(fr)
			if v.o != nil && (v.o.class == nil || !v.o.class.decl.HasAncestor(class)) {
				in.trap("bad cast")
			}
			return v
		}}
	case *Index:
		arr, idx := c.expr(e.Arr), c.expr(e.Idx)
		return operand{fn: func(fr []refValue) refValue {
			a, i := arr.get(fr), idx.get(fr).i
			if a.o == nil {
				in.trap("index on null")
			}
			if i < 0 || i >= int64(len(a.o.slots)) {
				in.trap("index %d out of range", i)
			}
			return a.o.slots[i]
		}}
	case *FieldAccess:
		x := c.expr(e.X)
		if e.IsArrayLen {
			return operand{fn: func(fr []refValue) refValue {
				v := x.get(fr)
				if v.o == nil {
					in.trap("field on null")
				}
				return refValue{i: int64(len(v.o.slots))}
			}}
		}
		slot := c.fieldSlot[e.Field]
		return operand{fn: func(fr []refValue) refValue {
			v := x.get(fr)
			if v.o == nil {
				in.trap("field on null")
			}
			return v.o.slots[slot]
		}}
	case *Call:
		return operand{fn: c.call(e)}
	case *Lambda:
		lam := &refMethod{locals: e.NumLocals, this: true, body: c.stmt(e.Body)}
		caps := make([]operand, len(e.Captures))
		for i, cp := range e.Captures {
			if cp.OuterKind == IdentLocal || cp.OuterKind == IdentCapture {
				caps[i] = c.read(cp.OuterKind, cp.OuterSlot, nil, cp.Name)
				continue
			}
			name := cp.Name
			caps[i] = operand{fn: func(fr []refValue) refValue { in.trap("bad capture kind for %s", name); return refValue{} }}
		}
		return operand{fn: func(fr []refValue) refValue {
			obj := &refObject{fn: lam, slots: make([]refValue, len(caps))}
			for i, cp := range caps {
				obj.slots[i] = cp.get(fr)
			}
			return refValue{o: obj}
		}}
	case *NewObject:
		class, args := c.classes[e.Class], c.exprs(e.Args)
		if e.Ctor == nil {
			return operand{fn: func(fr []refValue) refValue {
				return refValue{o: &refObject{class: class, slots: make([]refValue, class.fields)}}
			}}
		}
		ctor := in.methods[e.Ctor]
		return operand{fn: func(fr []refValue) refValue {
			obj := refValue{o: &refObject{class: class, slots: make([]refValue, class.fields)}}
			in.call(ctor, in.args(args, fr, 1), obj)
			return obj
		}}
	case *NewArray:
		n := c.expr(e.Len)
		return operand{fn: func(fr []refValue) refValue {
			n := n.get(fr).i
			if n < 0 {
				in.trap("negative array length")
			}
			if n > 1<<24 {
				in.trap("array too large for reference interpreter")
			}
			return refValue{o: &refObject{slots: make([]refValue, n)}}
		}}
	}
	return operand{fn: func(fr []refValue) refValue {
		in.trap("reference interpreter: unknown expression %T", e)
		return refValue{}
	}}
}

func (c *refCompiler) binary(e *Binary) exprFn {
	in, x, y := c.in, c.expr(e.X), c.expr(e.Y)
	switch e.Op {
	case TokAndAnd: // short-circuit operators evaluate lazily
		return func(fr []refValue) refValue { return truth(x.get(fr).i != 0 && y.get(fr).i != 0) }
	case TokOrOr:
		return func(fr []refValue) refValue { return truth(x.get(fr).i != 0 || y.get(fr).i != 0) }
	case TokPlus:
		return func(fr []refValue) refValue { return refValue{i: x.get(fr).i + y.get(fr).i} }
	case TokMinus:
		return func(fr []refValue) refValue { return refValue{i: x.get(fr).i - y.get(fr).i} }
	case TokStar:
		return func(fr []refValue) refValue { return refValue{i: x.get(fr).i * y.get(fr).i} }
	case TokSlash:
		return func(fr []refValue) refValue {
			a, b := x.get(fr).i, y.get(fr).i
			if b == 0 {
				in.trap("division by zero")
			}
			if b == -1 { // MinInt64 / -1 wraps, matching the VM
				return refValue{i: -a}
			}
			return refValue{i: a / b}
		}
	case TokPercent:
		return func(fr []refValue) refValue {
			a, b := x.get(fr).i, y.get(fr).i
			if b == 0 {
				in.trap("remainder by zero")
			}
			if b == -1 {
				return refValue{}
			}
			return refValue{i: a % b}
		}
	case TokAmp:
		return func(fr []refValue) refValue { return refValue{i: x.get(fr).i & y.get(fr).i} }
	case TokPipe:
		return func(fr []refValue) refValue { return refValue{i: x.get(fr).i | y.get(fr).i} }
	case TokCaret:
		return func(fr []refValue) refValue { return refValue{i: x.get(fr).i ^ y.get(fr).i} }
	case TokShl:
		return func(fr []refValue) refValue { return refValue{i: x.get(fr).i << (uint64(y.get(fr).i) & 63)} }
	case TokShr:
		return func(fr []refValue) refValue { return refValue{i: x.get(fr).i >> (uint64(y.get(fr).i) & 63)} }
	case TokEq:
		return func(fr []refValue) refValue { a, b := x.get(fr), y.get(fr); return truth(a == b) }
	case TokNe:
		return func(fr []refValue) refValue { a, b := x.get(fr), y.get(fr); return truth(a != b) }
	case TokLt:
		return func(fr []refValue) refValue { return truth(x.get(fr).i < y.get(fr).i) }
	case TokLe:
		return func(fr []refValue) refValue { return truth(x.get(fr).i <= y.get(fr).i) }
	case TokGt:
		return func(fr []refValue) refValue { return truth(x.get(fr).i > y.get(fr).i) }
	case TokGe:
		return func(fr []refValue) refValue { return truth(x.get(fr).i >= y.get(fr).i) }
	}
	op := e.Op
	return func(fr []refValue) refValue {
		x.get(fr)
		y.get(fr)
		in.trap("unknown operator %v", op)
		return refValue{}
	}
}

// call resolves a call site. A closure call evaluates its callee before
// the arguments and every other call its arguments first, a virtual
// call's receiver after them, matching the VM's stack order.
func (c *refCompiler) call(e *Call) exprFn {
	in, args := c.in, c.exprs(e.Args)
	switch e.Kind {
	case CallClosureV:
		callee := c.expr(e.FnExpr)
		return func(fr []refValue) refValue {
			clo := callee.get(fr)
			base := in.args(args, fr, 1)
			if clo.o == nil {
				in.trap("closure call on nil")
			}
			if clo.o.fn == nil {
				in.trap("closure call on non-closure")
			}
			return in.call(clo.o.fn, base, clo)
		}
	case CallFree, CallStaticM:
		target := in.methods[e.Target]
		return func(fr []refValue) refValue { return in.call(target, in.args(args, fr, 0), refValue{}) }
	case CallVirtual:
		table := make([]*refMethod, len(c.order))
		for i, cl := range c.order {
			table[i] = in.methods[lookupMethod(cl.decl, e.Name)]
		}
		recv := operand{slot: 0}
		if !e.ImplicitThis {
			recv = c.expr(e.Recv)
		}
		name := e.Name
		return func(fr []refValue) refValue {
			base := in.args(args, fr, 1)
			r := recv.get(fr)
			if r.o == nil || r.o.class == nil {
				in.trap("virtual call on null")
			}
			target := table[r.o.class.id]
			if target == nil {
				in.trap("no method %s on %s", name, r.o.class.decl.Name)
			}
			return in.call(target, base, r)
		}
	}
	name := e.Name
	return func(fr []refValue) refValue {
		in.args(args, fr, 0)
		in.trap("unresolved call %s", name)
		return refValue{}
	}
}

func (c *refCompiler) exprs(es []Expr) []operand {
	out := make([]operand, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}

func truth(b bool) refValue {
	if b {
		return refValue{i: 1}
	}
	return refValue{}
}

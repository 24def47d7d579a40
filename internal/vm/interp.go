package vm

import (
	"fmt"
	"math"
	"slices"

	"gocbs/internal/bytecode"
)

// Run executes the program's entry method with the given integer
// arguments and returns its result.
func (vm *VM) Run(args ...int64) (Value, error) {
	vals := make([]Value, len(args))
	for i, a := range args {
		vals[i] = IntV(a)
	}
	return vm.Call(vm.Prog.Entry, vals...)
}

// Call invokes a static method re-entrantly: the harness uses it to
// run setup once and then time individual benchmark iterations. The
// frame it pushes has no call site (Site == -1), so profilers never
// attribute a DCG edge to harness invocations.
func (vm *VM) Call(m *bytecode.Method, args ...Value) (Value, error) {
	if !m.Static {
		return Value{}, fmt.Errorf("Call requires a static method, got %s", m.Name)
	}
	if len(args) != m.NArgs {
		return Value{}, fmt.Errorf("%s takes %d args, got %d", m.Name, m.NArgs, len(args))
	}
	baseDepth, base := len(vm.frames), len(vm.stack)
	vm.stack = append(vm.stack, args...)
	err := vm.enter(m, -1)
	var v Value
	if err == nil {
		v, err = vm.run(baseDepth)
	}
	vm.fold() // the caller may look at what a CallCounter keeps
	if err != nil {
		// The error names the faulting location; the activations between
		// it and this call are dead, and a reused VM must not see them.
		vm.frames, vm.stack = vm.frames[:baseDepth], vm.stack[:base]
	}
	return v, err
}

// enter transfers control into m from the call instruction the
// executing frame is at, with call-site ID site, or from the harness
// (site -1), with all the bookkeeping and hooks of a call and an entry.
// The frame is made in place: the m.NArgs values on top of the stack
// become locals 0..NArgs-1, the other locals are cleared above them,
// and room is made for the MaxStack operands the verifier allows.
func (vm *VM) enter(m *bytecode.Method, site int) error {
	vm.chargeWork(vm.Cost.CallOverhead)
	callerPC := -1
	if site >= 0 {
		vm.Calls++
		vm.slowCalls++
		for _, c := range vm.calls {
			c.OnCall(vm, vm.frame().M, site, m)
		}
		f := vm.frame()
		if vm.counter != nil {
			if r := vm.table(f.M).rows[f.PC]; r != nil {
				vm.count(r, m)
			}
		}
		callerPC = f.PC
	}
	base := len(vm.stack) - m.NArgs
	need := base + m.NLocals + m.MaxStack
	if need > vm.maxStack {
		return vm.trap("stack overflow calling %s", m.Name)
	}
	// Grow rounds the capacity up; it is cut back to the limit, so that a
	// frame run finds room for without coming here is within it too.
	grown := slices.Grow(vm.stack, need-len(vm.stack))
	vm.stack = grown[: base+m.NLocals : min(cap(grown), vm.maxStack)]
	// A loop and an indexed store, not clear and append: for a handful
	// of slots and one pointer-bearing Frame those go through memclr
	// and typedmemmove, 10 ns a call where this is 2.
	for i := base + m.NArgs; i < len(vm.stack); i++ {
		vm.stack[i] = Value{}
	}
	n := len(vm.frames)
	vm.frames = slices.Grow(vm.frames, 1)[:n+1]
	vm.frames[n] = Frame{M: m, Site: site, CallerPC: callerPC, base: base}

	if vm.spans[m.ID].tab == nil {
		vm.table(m) // a first entry counts before any hook looks; step sees to the rest
	}
	if vm.EntryCheckCost > 0 {
		vm.ChargeProfiling(vm.EntryCheckCost)
	}
	for _, e := range vm.entries {
		e.OnEntry(vm, m)
	}
	if site < 0 && vm.counter != nil {
		vm.counter.Fold(-1, -1, m.ID, 1)
	}
	if vm.ControlWord != 0 {
		vm.takeYieldpoint(YieldPrologue)
	}
	return nil
}

// frame returns the executing activation record.
func (vm *VM) frame() *Frame { return &vm.frames[len(vm.frames)-1] }

// bound sets what run tests between two sync points, where it makes no
// call and so nothing can change under it: what a span's charge is tested
// against — the step limit (0 while tracing, so that nothing fits) and
// the timer's deadline — and whether a call and a return have anybody
// watching them. step calls it on the way in, after whatever hook brought
// run to a sync point, and again after the one hook of its own.
func (vm *VM) bound() {
	vm.quietCall = len(vm.calls)+len(vm.entries) == 0 && vm.EntryCheckCost == 0 && vm.ControlWord == ControlNone
	vm.quietReturn = vm.ControlWord == ControlNone || !vm.EpilogueYieldpoints
	vm.limit, vm.deadline = math.MaxUint64, math.MaxUint64
	if vm.Trace != nil {
		vm.limit = 0
	} else if vm.MaxSteps > 0 {
		vm.limit = vm.MaxSteps
	}
	if vm.TimerPeriod > 0 {
		if vm.nextTimer == 0 {
			vm.placeTick()
		}
		vm.deadline = vm.nextTimer
	}
}

// step pays for what runs next and returns the code run may execute on
// that payment and the executing method's span table. That is as much of
// the span at the executing frame's PC as lies ahead of the step limit
// and the next tick: all of it, unless run has just found that it does
// not fit, and then the code is the method's execution image. A part of
// the span is the method's own code cut where the payment ends, for a
// window of the image might reach beyond. When not even the span's first
// instruction fits — always, under a Trace function — that one is taken
// the slow way: step limit, trace function, its own charge, timer. Either
// way a tick is delivered at the first instruction boundary at which the
// clock has passed the deadline.
func (vm *VM) step() (code []bytecode.Instr, tab []span, err error) {
	f := vm.frame()
	s, pc := vm.table(f.M), f.PC
	tab = s.tab
	if uint(pc) >= uint(len(tab)) {
		return nil, nil, vm.trap("pc out of range")
	}
	vm.bound()
	// Whether the first k instructions fit can only fall from true to
	// false as k grows — their number and their summed cost do not shrink,
	// the limit and the deadline stand still — so bisection finds the
	// longest part that does. The whole span is tried first: after a sync
	// point that is the usual answer.
	n, paid := int(tab[pc].n), uint64(0)
	lo, hi := 0, n+1 // the first lo instructions fit, the first hi do not
	for k := n; lo+1 < hi && vm.Trace == nil; k = (lo + hi) / 2 {
		cyc := tab[pc].cyc
		if k < n {
			cyc -= tab[pc+k].cyc
		}
		if vm.Instrs+uint64(k) <= vm.limit && vm.Cycles+cyc < vm.deadline {
			lo, paid = k, cyc
		} else {
			hi = k
		}
	}
	vm.Cycles, vm.Instrs = vm.Cycles+paid, vm.Instrs+uint64(lo)
	if lo == n {
		return s.img, tab, nil
	} else if lo > 0 {
		return f.M.Code[:pc+lo], tab, nil
	}
	ins := f.M.Code[pc]
	vm.Instrs++
	if vm.MaxSteps > 0 && vm.Instrs > vm.MaxSteps {
		return nil, nil, vm.trap("step limit %d exceeded", vm.MaxSteps)
	}
	if vm.Trace != nil {
		vm.Trace(f.M, pc, ins)
	}
	vm.chargeWork(vm.Cost.Instr[ins.Op])
	for vm.TimerPeriod > 0 && vm.Cycles >= vm.nextTimer {
		vm.tickN, vm.tickDue = vm.tickN+1, vm.tickDue+vm.TimerPeriod
		vm.placeTick()
		if len(vm.pending) > 0 {
			vm.fold() // a tick listener may read what a CallCounter keeps
		}
		for _, t := range vm.ticks {
			t.OnTimerTick(vm)
		}
	}
	vm.bound() // a tick listener may have moved any of it
	if pc+1 == len(tab) {
		// A method's last instruction heads no window: the image has it as
		// it is, and run knows a cut line by its being shorter than the table.
		return s.img, tab, nil
	}
	return f.M.Code[:pc+1], tab, nil
}

// load derives run's registers from the VM, but for the code and the
// span table, which step has just looked up: the executing frame's pc and
// its window fr of the shared stack (locals, then operands up to sp).
// The window is spelled out at its three uses: an inlined helper for it
// cost run's register allocation 7 % of vm_bare.
func (vm *VM) load() (pc int, fr []Value, sp int) {
	f := vm.frame()
	return f.PC, vm.stack[f.base : f.base+f.M.NLocals+f.M.MaxStack], len(vm.stack) - f.base
}

// sync writes run's registers back, so that what runs next sees the VM
// as of pc. It returns vm, so that a trap is raised in one expression.
func (vm *VM) sync(pc, sp int) *VM {
	f := vm.frame()
	f.PC, vm.stack = pc, vm.stack[:f.base+sp]
	return vm
}

// fault is sync for a trap raised at pc in mid-span: what was paid for
// beyond pc is given back, so that the counters stop at the fault. That
// is the rest of the span, or of the part of it that code was cut to;
// nothing, when pc was paid for alone.
func (vm *VM) fault(pc, sp int, code []bytecode.Instr, spans []span) *VM {
	if pc+1 < len(code) {
		back := spans[pc+1]
		if len(code) < len(spans) {
			back.cyc, back.n = back.cyc-spans[len(code)].cyc, back.n-spans[len(code)].n
		}
		vm.Cycles, vm.Instrs = vm.Cycles-back.cyc, vm.Instrs-back.n
	}
	return vm.sync(pc, sp)
}

// run interprets until the frame stack shrinks back to baseDepth.
//
// The register loop keeps its working set in locals (see load) and
// makes no call: Go has no callee-saved registers, so a value live
// across any call in the loop would be stored to memory wherever it is
// defined. Whatever needs one — a hook, a trap, an allocation, a slow
// frame push or pop — is a sync point: sync, do it on the VM's own
// fields, and let the outer loop start over from them, so nothing cached
// survives a hook. The counters are not in the working set: a span (see
// span.go) is paid for where it starts, and the straight line inside it
// runs with nothing to count (DESIGN §5, "Interpreter state and sync
// points").
func (vm *VM) run(baseDepth int) (Value, error) {
	for { // the VM is at an instruction boundary, PC on what runs next
		code, spans, err := vm.step() // the straight line ends where what step paid for does
		if err != nil {
			return Value{}, err
		}
		pc, fr, sp := vm.load()
		var (
			target, site int
			callee       *bytecode.Method
			dispatch     uint64 // what finding callee cost
		)
	registers:
		for {
			for uint(pc) < uint(len(code)) { // the straight line, paid for: falls out at a terminator
				ins := code[pc]
				switch ins.Op {
				case bytecode.OpNop:

				case bytecode.OpConst:
					fr[sp] = IntV(int64(ins.A))
					sp++
				case bytecode.OpConstL:
					fr[sp] = IntV(vm.frame().M.Consts[ins.A])
					sp++
				case bytecode.OpLoad:
					fr[sp] = fr[ins.A]
					sp++
				case bytecode.OpStore:
					sp--
					fr[ins.A] = fr[sp]
				case bytecode.OpPop:
					sp--
				case bytecode.OpDup:
					fr[sp] = fr[sp-1]
					sp++

				case bytecode.OpAdd:
					sp--
					fr[sp-1] = IntV(fr[sp-1].I + fr[sp].I)
				case bytecode.OpSub:
					sp--
					fr[sp-1] = IntV(fr[sp-1].I - fr[sp].I)
				case bytecode.OpMul:
					sp--
					fr[sp-1] = IntV(fr[sp-1].I * fr[sp].I)
				case bytecode.OpDiv:
					sp--
					a, b := fr[sp-1].I, fr[sp].I
					if b == 0 {
						return Value{}, vm.fault(pc, sp, code, spans).trap("division by zero")
					}
					// MinInt64 / -1 wraps (Java idiv semantics); Go would panic.
					if b == -1 {
						fr[sp-1] = IntV(-a)
					} else {
						fr[sp-1] = IntV(a / b)
					}
				case bytecode.OpRem:
					sp--
					a, b := fr[sp-1].I, fr[sp].I
					if b == 0 {
						return Value{}, vm.fault(pc, sp, code, spans).trap("remainder by zero")
					}
					if b == -1 { // MinInt64 % -1 is 0, not a panic
						fr[sp-1] = IntV(0)
					} else {
						fr[sp-1] = IntV(a % b)
					}
				case bytecode.OpNeg:
					fr[sp-1] = IntV(-fr[sp-1].I)

				case bytecode.OpAnd:
					sp--
					fr[sp-1] = IntV(fr[sp-1].I & fr[sp].I)
				case bytecode.OpOr:
					sp--
					fr[sp-1] = IntV(fr[sp-1].I | fr[sp].I)
				case bytecode.OpXor:
					sp--
					fr[sp-1] = IntV(fr[sp-1].I ^ fr[sp].I)
				case bytecode.OpShl:
					sp--
					fr[sp-1] = IntV(fr[sp-1].I << (uint64(fr[sp].I) & 63))
				case bytecode.OpShr:
					sp--
					fr[sp-1] = IntV(fr[sp-1].I >> (uint64(fr[sp].I) & 63))

				case bytecode.OpEq, bytecode.OpNe, bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe:
					sp--
					fr[sp-1] = boolV(compare(ins.Op, fr[sp-1], fr[sp]))
				case bytecode.OpNot:
					fr[sp-1] = boolV(fr[sp-1] == Value{})

				case bytecode.OpJump:
					target = int(ins.A)
					goto branch
				case bytecode.OpJumpZ, bytecode.OpJumpNZ:
					sp--
					if (fr[sp] == Value{}) == (ins.Op == bytecode.OpJumpZ) {
						target = int(ins.A)
						goto branch
					}
					pc++
					goto next

				case xGetFieldLoad: // getfield A; load B, or the getfield alone when it traps
					if o := fr[sp-1].R; o != nil && uint(ins.A) < uint(len(o.Fields)) {
						fr[sp-1] = o.Fields[ins.A]
						fr[sp] = fr[ins.B]
						sp++
						pc++
						break
					}
					fallthrough
				case bytecode.OpGetField:
					o := fr[sp-1].R
					if o == nil {
						return Value{}, vm.fault(pc, sp, code, spans).trap("getfield on nil")
					}
					if uint(ins.A) >= uint(len(o.Fields)) {
						return Value{}, vm.fault(pc, sp, code, spans).trap("getfield outside the %d fields of %s", len(o.Fields), castClassName(o))
					}
					fr[sp-1] = o.Fields[ins.A]
				case bytecode.OpPutField:
					sp -= 2
					o := fr[sp].R
					if o == nil {
						return Value{}, vm.fault(pc, sp, code, spans).trap("putfield on nil")
					}
					if uint(ins.A) >= uint(len(o.Fields)) {
						return Value{}, vm.fault(pc, sp, code, spans).trap("putfield outside the %d fields of %s", len(o.Fields), castClassName(o))
					}
					o.Fields[ins.A] = fr[sp+1]
				case bytecode.OpNew:
					cls := vm.Prog.Classes[ins.A]
					vm.Cycles += vm.Cost.AllocBase + vm.Cost.AllocPerField*uint64(len(cls.Fields))
					vm.sync(pc+1, sp)
					vm.stack = append(vm.stack, RefV(&Object{Class: cls, Fields: make([]Value, len(cls.Fields))}))
					break registers

				case bytecode.OpGetStatic:
					fr[sp] = vm.statics[ins.A]
					sp++
				case bytecode.OpPutStatic:
					sp--
					vm.statics[ins.A] = fr[sp]

				case bytecode.OpNewArr:
					n := fr[sp-1].I
					if n < 0 || n > maxArrayLen {
						return Value{}, vm.sync(pc, sp).trap("newarr with length %d outside [0,%d]", n, maxArrayLen)
					}
					vm.Cycles += vm.Cost.AllocBase + vm.Cost.AllocPerField*uint64(n)
					vm.sync(pc+1, sp-1)
					vm.stack = append(vm.stack, RefV(&Object{Elems: make([]Value, n)}))
					break registers
				case bytecode.OpALoad:
					sp--
					arr, idx := fr[sp-1].R, fr[sp].I
					if arr == nil {
						return Value{}, vm.fault(pc, sp, code, spans).trap("aload on nil")
					}
					if idx < 0 || idx >= int64(len(arr.Elems)) {
						return Value{}, vm.fault(pc, sp, code, spans).trap("array index %d out of range [0,%d)", idx, len(arr.Elems))
					}
					fr[sp-1] = arr.Elems[idx]
				case bytecode.OpAStore:
					sp -= 3
					arr, idx := fr[sp].R, fr[sp+1].I
					if arr == nil {
						return Value{}, vm.fault(pc, sp, code, spans).trap("astore on nil")
					}
					if idx < 0 || idx >= int64(len(arr.Elems)) {
						return Value{}, vm.fault(pc, sp, code, spans).trap("array index %d out of range [0,%d)", idx, len(arr.Elems))
					}
					arr.Elems[idx] = fr[sp+2]
				case xArrLenCmpJump: // arrlen; <cmp>; jumpnz A, the comparison in B; or the arrlen alone when it traps
					if arr := fr[sp-1].R; arr != nil {
						pc += 2
						sp -= 2
						if compare(bytecode.Opcode(ins.B), fr[sp], IntV(int64(len(arr.Elems)))) {
							target = int(ins.A)
							goto branch
						}
						pc++
						goto next
					}
					fallthrough
				case bytecode.OpArrLen:
					arr := fr[sp-1].R
					if arr == nil {
						return Value{}, vm.fault(pc, sp, code, spans).trap("arrlen on nil")
					}
					fr[sp-1] = IntV(int64(len(arr.Elems)))

				case bytecode.OpCallStatic:
					callee, site, dispatch = vm.Prog.Methods[ins.A], int(ins.B), 0
					goto call
				case bytecode.OpCallVirtual:
					slot, nargs := bytecode.DecodeVirtual(ins.A)
					recv := fr[sp-nargs].R
					if recv == nil {
						return Value{}, vm.sync(pc, sp).trap("virtual call on nil receiver")
					}
					if recv.Class == nil || slot >= len(recv.Class.VTable) {
						return Value{}, vm.sync(pc, sp).trap("bad virtual dispatch (slot %d)", slot)
					}
					callee, site = recv.Class.VTable[slot], int(ins.B)
					if callee == nil {
						return Value{}, vm.sync(pc, sp).trap("vtable slot %d empty on %s", slot, recv.Class.Name)
					}
					if callee.NArgs != nargs {
						return Value{}, vm.sync(pc, sp).trap("%s takes %d args, call site passes %d", callee.Name, callee.NArgs, nargs)
					}
					dispatch = vm.Cost.VirtualDispatch
					goto call

				case bytecode.OpMakeClosure:
					fn, ncaps := vm.Prog.Methods[ins.A], int(ins.B)
					vm.Cycles += vm.Cost.AllocBase + vm.Cost.AllocPerField*uint64(ncaps)
					vm.sync(pc+1, sp-ncaps)
					n := len(vm.stack)
					caps := append([]Value(nil), vm.stack[n:n+ncaps]...)
					vm.stack = append(vm.stack, RefV(&Object{Fn: fn, Fields: caps}))
					break registers
				case bytecode.OpCallClosure:
					nargs := int(ins.A)
					fn := fr[sp-nargs].R
					if fn == nil {
						return Value{}, vm.sync(pc, sp).trap("closure call on nil")
					}
					if fn.Fn == nil {
						return Value{}, vm.sync(pc, sp).trap("closure call on non-closure %s", castClassName(fn))
					}
					callee, site = fn.Fn, int(ins.B)
					if callee.NArgs != nargs {
						return Value{}, vm.sync(pc, sp).trap("closure %s takes %d args, call site passes %d", callee.Name, callee.NArgs, nargs)
					}
					dispatch = vm.Cost.VirtualDispatch
					goto call

				case bytecode.OpReturn, bytecode.OpReturnVoid:
					var rv Value
					if ins.Op == bytecode.OpReturn {
						sp--
						rv = fr[sp]
					}
					if n := len(vm.frames) - 1; n > baseDepth && vm.quietReturn {
						// No yieldpoint, and the caller is interpreted: if the VM's
						// table for it still covers its code, pop to it in registers.
						// The stack is cut at the callee's base, where its first
						// argument was pushed, and the result goes there.
						f, top := &vm.frames[n-1], vm.frames[n].base
						if s := &vm.spans[f.M.ID]; s.covers(f.M.Code) {
							vm.frames = vm.frames[:n]
							code, spans, pc = s.img, s.tab, f.PC+1
							fr, sp = vm.stack[f.base:f.base+f.M.NLocals+f.M.MaxStack], top-f.base
							fr[sp] = rv
							sp++
							goto next
						}
					}
					vm.sync(pc, sp)
					if vm.ControlWord != ControlNone && vm.EpilogueYieldpoints {
						vm.takeYieldpoint(YieldEpilogue)
					}
					vm.stack = vm.stack[:vm.frame().base]
					vm.frames = vm.frames[:len(vm.frames)-1]
					if len(vm.frames) == baseDepth {
						return rv, nil
					}
					vm.frame().PC++
					vm.stack = append(vm.stack, rv)
					break registers

				case bytecode.OpClassEq:
					o := fr[sp-1].R
					fr[sp-1] = boolV(o != nil && o.Class != nil && o.Class.ID == int(ins.A))
				case bytecode.OpVTEq:
					o := fr[sp-1].R
					slot, mid := bytecode.DecodeVTEq(ins.A)
					fr[sp-1] = boolV(o != nil && o.Class != nil && slot < len(o.Class.VTable) &&
						o.Class.VTable[slot] == vm.Prog.Methods[mid])
				case bytecode.OpInstanceOf:
					o := fr[sp-1].R
					fr[sp-1] = boolV(o != nil && o.Class != nil && o.Class.SubclassOf(vm.Prog.Classes[ins.A]))
				case bytecode.OpCast:
					o, cls := fr[sp-1].R, vm.Prog.Classes[ins.A]
					if o != nil && (o.Class == nil || !o.Class.SubclassOf(cls)) {
						return Value{}, vm.fault(pc, sp, code, spans).trap("cannot cast %s to %s", castClassName(o), cls.Name)
					}
				case bytecode.OpIsNull:
					fr[sp-1] = boolV(fr[sp-1] == Value{})
				case bytecode.OpNull:
					fr[sp] = Value{}
					sp++

				// Superinstructions: each case is the literal composition of its
				// unfused parts, and costs their sum. These five are public
				// (opt.FuseMethod emits them, and any program may carry them).
				case bytecode.OpLoadLoad:
					fr[sp] = fr[ins.A]
					fr[sp+1] = fr[ins.B]
					sp += 2
				case bytecode.OpLoadConst:
					fr[sp], fr[sp+1] = fr[ins.A], IntV(int64(ins.B))
					sp += 2
				case bytecode.OpAddConst:
					fr[sp-1] = IntV(fr[sp-1].I + int64(ins.A))
				case bytecode.OpIncLocal:
					// Like Load;Const;Add;Store, the result is a pure integer:
					// any reference interpretation of the local is dropped.
					fr[ins.A] = IntV(fr[ins.A].I + int64(ins.B))
				case xCmpJump: // <cmp>; jumpnz A: the branch is the window's second instruction
					pc++
					fallthrough
				case bytecode.OpJumpCmp:
					sp -= 2
					if compare(bytecode.Opcode(ins.B), fr[sp], fr[sp+1]) {
						target = int(ins.A)
						goto branch
					}
					pc++
					goto next

				// The windows of the execution image (image.go): the VM's own
				// superinstructions, each its parts in their order and stepping
				// over them. One that ends in a jump has pc on the jump when it
				// branches, and reads the target there if it has no operand left.
				case xIncLocalJump: // load A; const B; add; store A; jump
					fr[ins.A] = IntV(fr[ins.A].I + int64(ins.B))
					pc += 4
					target = int(code[pc].A)
					goto branch
				case xConstCmpJump: // const A; <cmp>; jumpnz, the comparison in B
					pc += 2
					sp--
					if compare(bytecode.Opcode(ins.B), fr[sp], IntV(int64(ins.A))) {
						target = int(code[pc].A)
						goto branch
					}
					pc++
					goto next
				case xLoadGetStatic: // load A; getstatic B
					fr[sp] = fr[ins.A]
					fr[sp+1] = vm.statics[ins.B]
					sp += 2
					pc++
				case xLoadLoad: // load A; load B
					fr[sp] = fr[ins.A]
					fr[sp+1] = fr[ins.B]
					sp += 2
					pc++
				case xLoadConst: // load A; const B
					fr[sp], fr[sp+1] = fr[ins.A], IntV(int64(ins.B))
					sp += 2
					pc++
				case xAddConst: // const A; add, or const -A; sub
					fr[sp-1] = IntV(fr[sp-1].I + int64(ins.A))
					pc++
				case xAddAndConst: // add; const A; and
					sp--
					fr[sp-1] = IntV((fr[sp-1].I + fr[sp].I) & int64(ins.A))
					pc += 2
				case xAddStore: // add; store A
					sp -= 2
					fr[ins.A] = IntV(fr[sp].I + fr[sp+1].I)
					pc++
				case xAndConst: // const A; and
					fr[sp-1] = IntV(fr[sp-1].I & int64(ins.A))
					pc++
				case xStoreLoad: // store A; load B
					fr[ins.A] = fr[sp-1]
					fr[sp-1] = fr[ins.B]
					pc++
				case xGetStaticLoad: // getstatic A; load B
					fr[sp], fr[sp+1] = vm.statics[ins.A], fr[ins.B]
					sp += 2
					pc++
				// A window with a part that can trap runs whole only when none
				// does. Otherwise what comes before that part is done here and the
				// rest left to the method's own code, where it traps at its own pc.
				case xLoadGetField: // load A; getfield B
					v := fr[ins.A]
					if o := v.R; o != nil && uint(ins.B) < uint(len(o.Fields)) {
						v = o.Fields[ins.B]
						pc++
					} else {
						code = vm.frame().M.Code
					}
					fr[sp] = v
					sp++
				case xGetStaticLoadALoad: // getstatic A; load B; aload
					arr, idx := vm.statics[ins.A], fr[ins.B]
					if arr.R != nil && uint64(idx.I) < uint64(len(arr.R.Elems)) {
						fr[sp] = arr.R.Elems[idx.I]
						sp++
						pc += 2
						break
					}
					fr[sp] = arr
					fr[sp+1] = idx
					sp += 2
					pc++
					code = vm.frame().M.Code
				case xLoadALoad: // load A; aload
					v := fr[ins.A]
					if arr := fr[sp-1].R; arr != nil && uint64(v.I) < uint64(len(arr.Elems)) {
						fr[sp-1] = arr.Elems[v.I]
						pc++
						break
					}
					fr[sp] = v
					sp++
					code = vm.frame().M.Code

				case bytecode.OpPrint:
					sp--
					v := fr[sp].I
					vm.sync(pc+1, sp)
					vm.Output = append(vm.Output, v)
					break registers
				case bytecode.OpHalt:
					vm.sync(pc, sp)
					vm.stack, vm.frames = vm.stack[:vm.frames[baseDepth].base], vm.frames[:baseDepth]
					return Value{}, nil

				default: // a number the VM has no case for: the image's xUndefined, that is
					return Value{}, vm.fault(pc, sp, code, spans).undefined()
				}
				pc++
			}

		next: // pc starts a span: pay for all of it here, or leave it to step
			if uint(pc) < uint(len(spans)) {
				s := spans[pc]
				if c, i := vm.Cycles+s.cyc, vm.Instrs+s.n; i <= vm.limit && c < vm.deadline {
					vm.Cycles, vm.Instrs = c, i
					if len(code) < len(spans) { // step had cut it: all of the method again, as its image
						code = vm.spans[vm.frame().M.ID].img
					}
					continue
				}
			}
			// Out of range, tracing, or the step limit or a tick falls inside.
			vm.sync(pc, sp)
			break

		branch: // a taken branch to target; a backward one is a yieldpoint
			if target <= pc && vm.ControlWord > ControlNone {
				vm.sync(pc, sp)
				vm.takeYieldpoint(YieldBackedge)
				vm.frame().PC = target
				break
			}
			pc = target
			goto next

		call: // a call instruction at pc, its arguments pushed
			if f, n, s := vm.frame(), len(vm.frames), &vm.spans[callee.ID]; vm.quietCall && s.covers(callee.Code) && n < cap(vm.frames) &&
				f.base+sp-callee.NArgs+callee.NLocals+callee.MaxStack <= cap(vm.stack) {
				// Nobody is watching and nothing has to grow: what is left of
				// enter is the frame push, done here in registers, and at a
				// counted point the count, once enter has seen the pair (count).
				if vm.counter != nil {
					if r := vm.spans[f.M.ID].rows[pc]; r != nil {
						k := uint(callee.ID - r.off)
						if k >= uint(len(r.n)) || r.n[k] == 0 {
							goto slow
						}
						r.n[k]++
						vm.Cycles, vm.ProfilingCycles = vm.Cycles+r.cost, vm.ProfilingCycles+r.cost
					}
				}
				vm.Calls++
				vm.Cycles += dispatch + vm.Cost.CallOverhead
				f.PC = pc
				base := f.base + sp - callee.NArgs
				vm.frames = vm.frames[:n+1]
				vm.frames[n] = Frame{M: callee, Site: site, CallerPC: pc, base: base}
				code, spans, pc = s.img, s.tab, 0
				fr, sp = vm.stack[base:base+callee.NLocals+callee.MaxStack], callee.NLocals
				for i := callee.NArgs; i < sp; i++ {
					fr[i] = Value{}
				}
				goto next
			}
		slow:
			vm.Cycles += dispatch
			if err := vm.sync(pc, sp).enter(callee, site); err != nil {
				return Value{}, err
			}
			break
		}
	}
}

// undefined is the trap for an opcode run has no case for, named as the
// method's own code has it: the image, where run met it, has xUndefined.
func (vm *VM) undefined() error {
	f := vm.frame()
	return vm.trap("unimplemented opcode %v", f.M.Code[f.PC].Op)
}

func castClassName(o *Object) string {
	if o.Fn != nil {
		return "closure " + o.Fn.Name
	}
	if o.Class == nil {
		return "array"
	}
	return o.Class.Name
}

// compare applies a comparison opcode (the verifier admits no other
// operand to OpJumpCmp). Equality looks at both halves of a Value.
func compare(op bytecode.Opcode, a, b Value) bool {
	switch op {
	case bytecode.OpEq:
		return a == b
	case bytecode.OpNe:
		return a != b
	case bytecode.OpLt:
		return a.I < b.I
	case bytecode.OpLe:
		return a.I <= b.I
	case bytecode.OpGt:
		return a.I > b.I
	default:
		return a.I >= b.I
	}
}

func boolV(b bool) Value {
	if b {
		return IntV(1)
	}
	return IntV(0)
}

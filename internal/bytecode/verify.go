package bytecode

import "fmt"

// Verify checks the structural well-formedness of a method body:
// opcode validity, operand ranges, jump targets, call target validity,
// and — via an abstract-interpretation worklist over stack depths —
// that the operand stack is consistent at every program point (every
// path reaching a pc agrees on the depth, no underflow). On success it
// records the method's MaxStack.
//
// Verify is run on every method at link time and re-run by the inliner
// after each code transformation.
func Verify(p *Program, m *Method) error {
	code := m.Code
	if len(code) == 0 {
		return fmt.Errorf("empty body")
	}
	last := code[len(code)-1]
	if !last.Op.IsReturn() && last.Op != OpJump && last.Op != OpHalt {
		return fmt.Errorf("body may fall off the end (last op %v)", last.Op)
	}

	// depth[pc] is the stack depth on entry to pc; -1 = unreached.
	depth := make([]int, len(code))
	for i := range depth {
		depth[i] = -1
	}
	maxDepth := 0
	var work []int
	push := func(pc, d int) error {
		if pc < 0 || pc >= len(code) {
			return fmt.Errorf("jump target %d out of range [0,%d)", pc, len(code))
		}
		if depth[pc] == -1 {
			depth[pc] = d
			work = append(work, pc)
			return nil
		}
		if depth[pc] != d {
			return fmt.Errorf("inconsistent stack depth at pc %d: %d vs %d", pc, depth[pc], d)
		}
		return nil
	}
	if err := push(0, 0); err != nil {
		return err
	}

	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		d := depth[pc]
		ins := code[pc]
		if !ins.Op.Valid() {
			return fmt.Errorf("pc %d: invalid opcode %d", pc, int(ins.Op))
		}

		// Operands that index the method itself, by the role table that
		// Rebase moves them by; a pc is checked below, as a successor.
		ra, rb := ins.Op.Roles()
		for i, role := range [2]Role{ra, rb} {
			v := int([2]int32{ins.A, ins.B}[i])
			switch {
			case role == RoleConst && (v < 0 || v >= len(m.Consts)):
				return fmt.Errorf("pc %d: constl index %d out of range", pc, v)
			case role == RoleLocal && (v < 0 || v >= m.NLocals):
				return fmt.Errorf("pc %d: local %d out of range [0,%d)", pc, v, m.NLocals)
			}
		}

		pops, pushes := stackEffect(ins.Op)
		switch ins.Op {
		case OpJumpCmp:
			if !Opcode(ins.B).IsCmp() {
				return fmt.Errorf("pc %d: jumpcmp with non-comparison operand %d", pc, ins.B)
			}
		case OpGetStatic, OpPutStatic:
			if int(ins.A) < 0 || int(ins.A) >= p.NumStatics {
				return fmt.Errorf("pc %d: static slot %d out of range", pc, ins.A)
			}
		case OpVTEq:
			slot, mid := DecodeVTEq(ins.A)
			if mid < 0 || mid >= len(p.Methods) {
				return fmt.Errorf("pc %d: vteq method id %d out of range", pc, mid)
			}
			if p.Methods[mid].VSlot != slot {
				return fmt.Errorf("pc %d: vteq slot %d does not match method %s (slot %d)", pc, slot, p.Methods[mid].Name, p.Methods[mid].VSlot)
			}
		case OpNew, OpClassEq, OpInstanceOf, OpCast:
			if int(ins.A) < 0 || int(ins.A) >= len(p.Classes) {
				return fmt.Errorf("pc %d: class id %d out of range", pc, ins.A)
			}
		case OpCallStatic:
			if int(ins.A) < 0 || int(ins.A) >= len(p.Methods) {
				return fmt.Errorf("pc %d: method id %d out of range", pc, ins.A)
			}
			callee := p.Methods[ins.A]
			if !callee.Static {
				return fmt.Errorf("pc %d: callstatic targets virtual method %s", pc, callee.Name)
			}
			pops, pushes = callee.NArgs, 1
		case OpCallVirtual:
			if ins.A < 0 {
				return fmt.Errorf("pc %d: negative vtable operand", pc)
			}
			_, nargs := DecodeVirtual(ins.A)
			if nargs < 1 {
				return fmt.Errorf("pc %d: virtual call with arity %d", pc, nargs)
			}
			pops, pushes = nargs, 1
		case OpCallClosure:
			// A is the argument count including the closure itself, so it
			// is at least 1; the target is resolved from the closure value
			// at run time.
			if ins.A < 1 {
				return fmt.Errorf("pc %d: closure call with arity %d", pc, ins.A)
			}
			pops, pushes = int(ins.A), 1
		case OpMakeClosure:
			if int(ins.A) < 0 || int(ins.A) >= len(p.Methods) {
				return fmt.Errorf("pc %d: makeclosure method id %d out of range", pc, ins.A)
			}
			target := p.Methods[ins.A]
			if !target.Static {
				return fmt.Errorf("pc %d: makeclosure targets virtual method %s", pc, target.Name)
			}
			if target.NArgs < 1 {
				return fmt.Errorf("pc %d: makeclosure target %s takes no closure argument", pc, target.Name)
			}
			if ins.B < 0 {
				return fmt.Errorf("pc %d: makeclosure with %d captures", pc, ins.B)
			}
			pops, pushes = int(ins.B), 1
		}

		if d < pops {
			return fmt.Errorf("pc %d (%v): stack underflow (depth %d, pops %d)", pc, ins.Op, d, pops)
		}
		nd := d - pops + pushes
		if nd > maxDepth {
			maxDepth = nd
		}

		switch {
		case ins.Op.IsReturn():
			// Terminal, and nothing is left behind: to its caller's stack a
			// call is arguments in, one value out, and the inliner relies on it.
			if nd != 0 {
				return fmt.Errorf("pc %d (%v): %d operands left on the stack", pc, ins.Op, nd)
			}
		case ins.Op == OpHalt:
			// terminal: no successors
		case ins.Op == OpJump:
			if err := push(int(ins.A), nd); err != nil {
				return fmt.Errorf("pc %d: %w", pc, err)
			}
		case ins.Op.IsCondBranch():
			if err := push(int(ins.A), nd); err != nil {
				return fmt.Errorf("pc %d: %w", pc, err)
			}
			if err := push(pc+1, nd); err != nil {
				return fmt.Errorf("pc %d: %w", pc, err)
			}
		default:
			if pc+1 >= len(code) {
				return fmt.Errorf("pc %d: falls off the end", pc)
			}
			if err := push(pc+1, nd); err != nil {
				return fmt.Errorf("pc %d: %w", pc, err)
			}
		}
	}

	m.MaxStack = maxDepth
	return nil
}

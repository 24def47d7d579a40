// Package opt implements a peephole/cleanup optimizer for MJ VM
// bytecode. It is the tidy-up pass a JIT would run after inlining:
// constant folding, jump threading, branch simplification, nop
// removal, and unreachable-code elimination. The pass is semantics
// preserving (the differential tests run it over randomly generated
// programs) and is offered as an opt-in ablation on top of the paper's
// pipeline — the published experiment numbers run without it.
package opt

import (
	"fmt"

	"gocbs/internal/bytecode"
)

// Cleanup optimizes one method until a fixpoint (bounded) and returns
// the number of instructions removed. It works on a copy of the body:
// the method changes only if something was rewritten and the result
// verifies.
func Cleanup(p *bytecode.Program, m *bytecode.Method) (int, error) {
	code := append([]bytecode.Instr(nil), m.Code...)
	rewritten := false
	for pass := 0; pass < 8; pass++ {
		changed := foldConstants(code)
		changed = threadJumps(code) || changed
		changed = simplifyBranches(code) || changed
		before := len(code)
		code = eliminateDead(code)
		if !changed && len(code) == before {
			break
		}
		rewritten = true
	}
	if !rewritten {
		return 0, nil
	}
	removed := len(m.Code) - len(code)
	if err := m.Install(p, code, m.NLocals, m.Consts); err != nil {
		return 0, fmt.Errorf("cleanup broke %s: %w", m.Name, err)
	}
	return removed, nil
}

// CleanupProgram runs Cleanup over every method.
func CleanupProgram(p *bytecode.Program) (int, error) {
	total := 0
	for _, m := range p.Methods {
		n, err := Cleanup(p, m)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// foldConstants rewrites Const a; Const b; <binop> windows into a
// single Const when the result fits an int32 operand, replacing the
// first two instructions with nops (removed later by eliminateDead).
// Windows that control can enter past their first instruction are left
// alone.
func foldConstants(code []bytecode.Instr) bool {
	leader := bytecode.ScanFlow(code).Leader
	changed := false
	for pc := 0; pc+2 < len(code); pc++ {
		a, b, op := code[pc], code[pc+1], code[pc+2]
		if a.Op != bytecode.OpConst || b.Op != bytecode.OpConst {
			continue
		}
		if leader[pc+1] || leader[pc+2] {
			continue
		}
		x, y := int64(a.A), int64(b.A)
		var v int64
		switch op.Op {
		case bytecode.OpAdd:
			v = x + y
		case bytecode.OpSub:
			v = x - y
		case bytecode.OpMul:
			v = x * y
		case bytecode.OpAnd:
			v = x & y
		case bytecode.OpOr:
			v = x | y
		case bytecode.OpXor:
			v = x ^ y
		case bytecode.OpShl:
			v = x << (uint64(y) & 63)
		case bytecode.OpShr:
			v = x >> (uint64(y) & 63)
		case bytecode.OpDiv:
			if y == 0 {
				continue // preserve the trap
			}
			v = x / y
		case bytecode.OpRem:
			if y == 0 {
				continue
			}
			v = x % y
		case bytecode.OpEq, bytecode.OpNe, bytecode.OpLt, bytecode.OpLe, bytecode.OpGt, bytecode.OpGe:
			var t bool
			switch op.Op {
			case bytecode.OpEq:
				t = x == y
			case bytecode.OpNe:
				t = x != y
			case bytecode.OpLt:
				t = x < y
			case bytecode.OpLe:
				t = x <= y
			case bytecode.OpGt:
				t = x > y
			default:
				t = x >= y
			}
			v = 0
			if t {
				v = 1
			}
		default:
			continue
		}
		if int64(int32(v)) != v {
			continue
		}
		code[pc] = bytecode.Instr{Op: bytecode.OpNop}
		code[pc+1] = bytecode.Instr{Op: bytecode.OpNop}
		code[pc+2] = bytecode.Instr{Op: bytecode.OpConst, A: int32(v)}
		changed = true
	}
	return changed
}

// threadJumps retargets branches that point at unconditional jumps.
func threadJumps(code []bytecode.Instr) bool {
	changed := false
	final := func(start int32) int32 {
		seen := 0
		t := start
		for t >= 0 && int(t) < len(code) && code[t].Op == bytecode.OpJump && seen < 16 {
			nt := code[t].A
			if nt == t {
				break // self-loop
			}
			t = nt
			seen++
		}
		return t
	}
	for pc := range code {
		if !code[pc].Op.IsBranch() {
			continue
		}
		if nt := final(code[pc].A); nt != code[pc].A {
			code[pc].A = nt
			changed = true
		}
	}
	return changed
}

// simplifyBranches removes branches to the immediately following
// instruction and folds constant conditions.
func simplifyBranches(code []bytecode.Instr) bool {
	leader := bytecode.ScanFlow(code).Leader
	changed := false
	for pc := range code {
		ins := code[pc]
		switch ins.Op {
		case bytecode.OpJump:
			if int(ins.A) == pc+1 {
				code[pc] = bytecode.Instr{Op: bytecode.OpNop}
				changed = true
			}
		case bytecode.OpJumpZ, bytecode.OpJumpNZ:
			// Const c; JumpZ/NZ -> Jump or fallthrough.
			if pc > 0 && code[pc-1].Op == bytecode.OpConst && !leader[pc] {
				c := code[pc-1].A
				taken := (c == 0) == (ins.Op == bytecode.OpJumpZ)
				code[pc-1] = bytecode.Instr{Op: bytecode.OpNop}
				if taken {
					code[pc] = bytecode.Instr{Op: bytecode.OpJump, A: ins.A}
				} else {
					code[pc] = bytecode.Instr{Op: bytecode.OpNop}
				}
				changed = true
			}
		}
	}
	return changed
}

// eliminateDead returns code without its nops and its unreachable
// instructions; a branch to a removed instruction lands on the next one
// that survives.
func eliminateDead(code []bytecode.Instr) []bytecode.Instr {
	reach := bytecode.ScanFlow(code).Reach
	del := make([]bool, len(code))
	removed := 0
	for pc, ins := range code {
		if !reach[pc] || ins.Op == bytecode.OpNop {
			del[pc] = true
			removed++
		}
	}
	if removed == 0 {
		return code
	}
	return bytecode.Relayout(code, del, nil)
}

// Superinstruction fusion: the dispatch-loop half of the perf
// trajectory work. What the interpreter pays per dispatched instruction
// is the fetch and the switch — cycles, instruction counts and the timer
// are settled a span at a time (vm/span.go) — and fusing the hottest
// adjacent pairs from the peephole window catalogue into single fused
// opcodes removes dispatches without changing anything a profiler can
// observe.
//
// The selection rule is static and deliberately conservative: a window
// is fused only when (a) every instruction matches one of the five
// catalogued patterns exactly, (b) control cannot enter it past its
// first instruction, and (c) the window contains no call, return,
// yieldpoint, or allocation — so a fused program executes the identical
// sequence of observable events (calls, yieldpoints, timer ticks, traps,
// output) at the identical modeled cycle counts as its unfused twin. The
// differential tests in fuse_differential_test.go enforce exactly that
// on all fifteen benchmarks, before and after inlining.
package opt

import (
	"fmt"
	"math"

	"gocbs/internal/bytecode"
)

// FuseStats reports what one fusion pass did.
type FuseStats struct {
	// Fused counts emitted superinstructions by opcode.
	Fused map[bytecode.Opcode]int
	// Removed is the net number of instructions eliminated.
	Removed int
}

// FuseMethod collapses the catalogued adjacent instruction windows of m
// into superinstructions and compacts the body; m changes only if the
// fused body verifies. Fusion assumes the summed-cost identities
// DefaultCostModel establishes for the fused opcodes; a custom cost
// model that breaks them would skew fused timer phase.
func FuseMethod(p *bytecode.Program, m *bytecode.Method) (FuseStats, error) {
	st := FuseStats{Fused: map[bytecode.Opcode]int{}}
	code := append([]bytecode.Instr(nil), m.Code...)
	leader := bytecode.ScanFlow(code).Leader
	dead := make([]bool, len(code))

	// interiorFree reports whether the window (pc, pc+n] can be
	// swallowed into a superinstruction at pc: entering the window
	// anywhere but its head must be impossible.
	interiorFree := func(pc, n int) bool {
		for i := pc + 1; i <= pc+n; i++ {
			if leader[i] {
				return false
			}
		}
		return true
	}

	// fuse puts super at pc in place of the n+1 instructions that start
	// there. Only the slots it swallows are dropped (pre-existing nops
	// keep their modeled cost, so they must survive).
	fuse := func(pc int, super bytecode.Instr, n int) {
		code[pc] = super
		for i := pc + 1; i <= pc+n; i++ {
			dead[i] = true
		}
		st.Fused[super.Op]++
		st.Removed += n
	}

	for pc := 0; pc < len(code); pc++ {
		ins := code[pc]

		// Load x; Const c; Add; Store x  ->  IncLocal x, c
		if pc+3 < len(code) && ins.Op == bytecode.OpLoad &&
			code[pc+1].Op == bytecode.OpConst &&
			code[pc+2].Op == bytecode.OpAdd &&
			code[pc+3].Op == bytecode.OpStore && code[pc+3].A == ins.A &&
			interiorFree(pc, 3) {
			fuse(pc, bytecode.Instr{Op: bytecode.OpIncLocal, A: ins.A, B: code[pc+1].A}, 3)
			pc += 3
			continue
		}

		if pc+1 >= len(code) || !interiorFree(pc, 1) {
			continue
		}
		next := code[pc+1]
		switch {
		// <cmp>; JumpNZ t -> JumpCmp <cmp> t;  <cmp>; JumpZ t -> JumpCmp <negated cmp> t
		case ins.Op.IsCmp() && (next.Op == bytecode.OpJumpNZ || next.Op == bytecode.OpJumpZ):
			cmp := ins.Op
			if next.Op == bytecode.OpJumpZ {
				cmp = bytecode.NegateCmp(cmp)
			}
			fuse(pc, bytecode.Instr{Op: bytecode.OpJumpCmp, A: next.A, B: int32(cmp)}, 1)
		// Load a; Load b -> LoadLoad a, b
		case ins.Op == bytecode.OpLoad && next.Op == bytecode.OpLoad:
			fuse(pc, bytecode.Instr{Op: bytecode.OpLoadLoad, A: ins.A, B: next.A}, 1)
		// Load a; Const c -> LoadConst a, c
		case ins.Op == bytecode.OpLoad && next.Op == bytecode.OpConst:
			fuse(pc, bytecode.Instr{Op: bytecode.OpLoadConst, A: ins.A, B: next.A}, 1)
		// Const c; Add -> AddConst c;  Const c; Sub -> AddConst -c
		case ins.Op == bytecode.OpConst && next.Op == bytecode.OpAdd:
			fuse(pc, bytecode.Instr{Op: bytecode.OpAddConst, A: ins.A}, 1)
		case ins.Op == bytecode.OpConst && next.Op == bytecode.OpSub && ins.A != math.MinInt32:
			fuse(pc, bytecode.Instr{Op: bytecode.OpAddConst, A: -ins.A}, 1)
		}
		if dead[pc+1] {
			pc++
		}
	}

	if st.Removed == 0 {
		return st, nil
	}
	if err := m.Install(p, bytecode.Relayout(code, dead, nil), m.NLocals, m.Consts); err != nil {
		return FuseStats{}, fmt.Errorf("fusion broke %s: %w", m.Name, err)
	}
	return st, nil
}

// FuseProgram fuses every method, returning summed statistics.
func FuseProgram(p *bytecode.Program) (FuseStats, error) {
	total := FuseStats{Fused: map[bytecode.Opcode]int{}}
	for _, m := range p.Methods {
		st, err := FuseMethod(p, m)
		if err != nil {
			return total, err
		}
		total.Removed += st.Removed
		for op, c := range st.Fused {
			total.Fused[op] += c
		}
	}
	return total, nil
}

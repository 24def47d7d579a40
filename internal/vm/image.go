package vm

import (
	"math"

	"gocbs/internal/bytecode"
)

// The execution image is what run dispatches on when nothing can happen
// inside a span: a copy of a method's code, as long as the code, in which
// an instruction that starts a catalogued window is overwritten by a
// superinstruction that does the work of the whole window and steps over
// the rest of it. Every pc keeps its meaning — branch targets, span sums,
// trap pcs and the Trace stream are the code's — and holds something that
// does what the code does from there, so control may enter anywhere: a
// window may straddle a branch target, which compacting fusion
// (opt.FuseMethod) may not.
//
// The superinstructions are the VM's own: numbered from
// bytecode.NumOpcodes up, never encoded, verified, disassembled or
// priced. An image is made where the span table is (vm.table) and dies
// with it; the method's own code runs whenever step has cut a span short,
// so the stepped VM is the oracle for the image as it is for the spans,
// and there is nothing to switch off.

// The windows, numbered densely so that run's switch stays one jump table.
const (
	xIncLocalJump = bytecode.Opcode(bytecode.NumOpcodes) + iota
	xCmpJump
	xConstCmpJump
	xArrLenCmpJump
	xLoadLoad
	xLoadConst
	xAddConst
	xLoadGetField
	xGetFieldLoad
	xStoreLoad
	xAndConst
	xAddAndConst
	xAddStore
	xLoadALoad
	xGetStaticLoad
	xGetStaticLoadALoad
	xLoadGetStatic

	// xUndefined stands in the image for an opcode the VM does not know
	// (the verifier lets one be where control cannot reach), whose number
	// might be a window's: run has no case for it.
	xUndefined = bytecode.Opcode(0xFF)
)

// A window is one row of the catalogue: width instructions that run as
// the one superinstruction op. match looks at the instructions from a pc
// on, width of them at least, and gives the superinstruction's operands
// if they are the row's. Each row is there because the suite's
// opcode-pair histogram put it there, and stays only while it saves its
// share of dispatches (TestImageDispatches prints the histogram and
// holds every row to it).
type window struct {
	op    bytecode.Opcode
	name  string
	width int
	match func(c []bytecode.Instr) (a, b int32, ok bool)
}

// cmpJump matches <cmp>; jumpnz and <cmp>; jumpz, and gives the
// comparison on which the branch is taken.
func cmpJump(c []bytecode.Instr) (bytecode.Opcode, bool) {
	switch cmp := c[0].Op; {
	case !cmp.IsCmp():
	case c[1].Op == bytecode.OpJumpNZ:
		return cmp, true
	case c[1].Op == bytecode.OpJumpZ:
		return bytecode.NegateCmp(cmp), true
	}
	return 0, false
}

// pair matches first; second and hands on the A operand of each.
func pair(first, second bytecode.Opcode) func([]bytecode.Instr) (int32, int32, bool) {
	return func(c []bytecode.Instr) (int32, int32, bool) {
		return c[0].A, c[1].A, c[0].Op == first && c[1].Op == second
	}
}

// windows is the catalogue, in the order the rows are tried at a pc. No
// part of a window but its last is a terminator, so a window lies inside
// one span.
var windows = [...]window{
	// A window wider than its head has operands for leaves a jump's target
	// where it is: run reads it from the jump, which heads no window.
	{xIncLocalJump, "inclocal·jump", 5, func(c []bytecode.Instr) (int32, int32, bool) { // load x; const c; add; store x; jump
		return c[0].A, c[1].A, c[0].Op == bytecode.OpLoad && c[1].Op == bytecode.OpConst && c[2].Op == bytecode.OpAdd &&
			c[3].Op == bytecode.OpStore && c[3].A == c[0].A && c[4].Op == bytecode.OpJump
	}},
	{xConstCmpJump, "const·cmp·jump", 3, func(c []bytecode.Instr) (int32, int32, bool) {
		cmp, ok := cmpJump(c[1:])
		return c[0].A, int32(cmp), ok && c[0].Op == bytecode.OpConst
	}},
	{xArrLenCmpJump, "arrlen·cmp·jump", 3, func(c []bytecode.Instr) (int32, int32, bool) {
		cmp, ok := cmpJump(c[1:])
		return c[2].A, int32(cmp), ok && c[0].Op == bytecode.OpArrLen
	}},
	{xCmpJump, "cmp·jump", 2, func(c []bytecode.Instr) (int32, int32, bool) { // the public jumpcmp
		cmp, ok := cmpJump(c)
		return c[1].A, int32(cmp), ok
	}},
	{xLoadLoad, "load·load", 2, pair(bytecode.OpLoad, bytecode.OpLoad)},
	{xLoadConst, "load·const", 2, pair(bytecode.OpLoad, bytecode.OpConst)},
	{xAddConst, "const·add", 2, func(c []bytecode.Instr) (int32, int32, bool) { // or const·sub, as adding -c
		if c[0].Op == bytecode.OpConst && c[1].Op == bytecode.OpSub && c[0].A != math.MinInt32 {
			return -c[0].A, 0, true
		}
		return c[0].A, 0, c[0].Op == bytecode.OpConst && c[1].Op == bytecode.OpAdd
	}},
	{xLoadGetField, "load·getfield", 2, pair(bytecode.OpLoad, bytecode.OpGetField)},
	{xGetFieldLoad, "getfield·load", 2, pair(bytecode.OpGetField, bytecode.OpLoad)},
	{xStoreLoad, "store·load", 2, pair(bytecode.OpStore, bytecode.OpLoad)},
	{xAddAndConst, "add·const·and", 3, func(c []bytecode.Instr) (int32, int32, bool) {
		return c[1].A, 0, c[0].Op == bytecode.OpAdd && c[1].Op == bytecode.OpConst && c[2].Op == bytecode.OpAnd
	}},
	{xAndConst, "const·and", 2, pair(bytecode.OpConst, bytecode.OpAnd)},
	{xAddStore, "add·store", 2, func(c []bytecode.Instr) (int32, int32, bool) {
		return c[1].A, 0, c[0].Op == bytecode.OpAdd && c[1].Op == bytecode.OpStore
	}},
	{xLoadALoad, "load·aload", 2, pair(bytecode.OpLoad, bytecode.OpALoad)},
	{xGetStaticLoadALoad, "getstatic·load·aload", 3, func(c []bytecode.Instr) (int32, int32, bool) {
		return c[0].A, c[1].A, c[0].Op == bytecode.OpGetStatic && c[1].Op == bytecode.OpLoad && c[2].Op == bytecode.OpALoad
	}},
	{xGetStaticLoad, "getstatic·load", 2, pair(bytecode.OpGetStatic, bytecode.OpLoad)},
	{xLoadGetStatic, "load·getstatic", 2, pair(bytecode.OpLoad, bytecode.OpGetStatic)},
}

// maxWidth is the width of the widest window.
const maxWidth = 5

// image returns code with its windows fused in place. Every pc gets what
// starts the cover of the instructions ahead of it that takes the fewest
// dispatches: a window, or the instruction as it is when no window does
// better (and of two windows that do equally well, the row listed first).
// It is found from the end backward, ahead[k] being the dispatches from
// pc+1+k on. So control is on such a cover wherever it enters: a window
// may straddle a branch target, and the branch finds the cover that
// starts at its target, which does what the code does from there.
func image(code []bytecode.Instr) []bytecode.Instr {
	img := append([]bytecode.Instr(nil), code...)
	var ahead [maxWidth]int
	for pc := len(code) - 1; pc >= 0; pc-- {
		if !code[pc].Op.Valid() {
			img[pc].Op = xUndefined
		}
		least := 1 + ahead[0]
		for i := range windows {
			w := &windows[i]
			if pc+w.width > len(code) || 1+ahead[w.width-1] >= least {
				continue
			}
			if a, b, ok := w.match(code[pc:]); ok {
				img[pc], least = bytecode.Instr{Op: w.op, A: a, B: b}, 1+ahead[w.width-1]
			}
		}
		copy(ahead[1:], ahead[:])
		ahead[0] = least
	}
	return img
}

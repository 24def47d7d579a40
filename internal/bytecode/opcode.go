// Package bytecode defines the instruction set, program representation,
// assembler, verifier, and disassembler for the MJ virtual machine.
//
// Programs are multigraphs of classes and methods. Methods contain
// fixed-width instructions (an opcode plus two int32 operands). Virtual
// dispatch goes through per-class vtables; every virtual call site names
// a vtable slot, and every call instruction carries a globally unique
// call-site ID assigned at link time, which is the unit of attribution
// for dynamic call graph profiles.
package bytecode

import "fmt"

// Opcode identifies an MJ VM instruction.
type Opcode uint8

// The MJ VM instruction set. Stack effects are written [pops] -> [pushes].
const (
	// OpNop does nothing.
	OpNop Opcode = iota
	// OpConst pushes the int32 operand A, sign-extended to int64.
	OpConst
	// OpConstL pushes the 64-bit constant Consts[A] of the current method.
	OpConstL
	// OpLoad pushes locals[A].
	OpLoad
	// OpStore pops a value into locals[A].
	OpStore
	// OpPop discards the top of stack.
	OpPop
	// OpDup duplicates the top of stack.
	OpDup

	// Arithmetic: pop b, pop a, push a OP b (integers).
	OpAdd
	OpSub
	OpMul
	OpDiv // traps on divide by zero
	OpRem // traps on divide by zero
	OpNeg // pop a, push -a

	// Bitwise: pop b, pop a, push a OP b.
	OpAnd
	OpOr
	OpXor
	OpShl // shift count masked to 63
	OpShr // arithmetic shift, count masked to 63

	// Comparisons: pop b, pop a, push 1 if a OP b else 0.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// OpNot pops x and pushes 1 if x == 0, else 0.
	OpNot

	// Control flow. Operand A is an absolute instruction index. A branch
	// whose target is <= the branch's own pc is a loop backedge and
	// executes a backedge yieldpoint.
	OpJump   // unconditional
	OpJumpZ  // pop; branch if zero
	OpJumpNZ // pop; branch if nonzero

	// Object operations. Field indices are flattened over the inheritance
	// chain, so a subclass sees its superclass fields at the same indices.
	OpGetField // pop obj, push obj.fields[A]; traps on nil
	OpPutField // pop val, pop obj, obj.fields[A] = val; traps on nil
	OpNew      // push a new instance of class A with zeroed fields

	// Statics (module-level globals).
	OpGetStatic // push statics[A]
	OpPutStatic // pop into statics[A]

	// Arrays.
	OpNewArr // pop n, push a new array of n zeroed values; traps on n < 0
	OpALoad  // pop idx, pop arr, push arr[idx]; traps on nil/bounds
	OpAStore // pop val, pop idx, pop arr, arr[idx] = val; traps on nil/bounds
	OpArrLen // pop arr, push its length; traps on nil

	// Calls. Arguments are pushed left to right; for virtual calls the
	// receiver is argument 0. B is the call-site ID.
	OpCallStatic  // A = target method ID
	OpCallVirtual // A = EncodeVirtual(slot, nargs); receiver's class selects the target

	// Returns. Every method returns exactly one value; OpReturnVoid
	// returns 0 (the MJ frontend inserts it for void methods).
	OpReturn
	OpReturnVoid

	// Type tests.
	OpClassEq    // pop obj, push 1 if obj != nil and obj's class ID == A (exact match)
	OpVTEq       // pop obj, push 1 if obj's vtable entry matches: A = EncodeVTEq(slot, methodID) (method-test inline guard)
	OpInstanceOf // pop obj, push 1 if obj != nil and obj's class is A or a subclass
	OpCast       // pop obj, push it back; traps unless nil or an instance of class A (or subclass)
	OpIsNull     // pop obj, push 1 if nil
	OpNull       // push the nil reference

	// OpPrint pops a value and appends it to the VM's output log.
	OpPrint
	// OpHalt stops the VM immediately.
	OpHalt

	// Superinstructions: fused forms of adjacent instruction sequences,
	// emitted only by opt.FuseProgram (never by the MJ front end).
	// Each one executes with the exact stack, local, and trap semantics
	// of its unfused expansion and is charged the summed cycle cost of
	// its parts, so fused and unfused execution produce byte-identical
	// profiles and outputs; the win is Go-level dispatch overhead.

	// OpLoadLoad pushes locals[A] then locals[B] (Load A; Load B).
	OpLoadLoad
	// OpLoadConst pushes locals[A] then the int32 operand B
	// (Load A; Const B).
	OpLoadConst
	// OpAddConst pops a and pushes a.I + A as an integer
	// (Const A; Add).
	OpAddConst
	// OpIncLocal adds the int32 operand B to locals[A] in place,
	// storing an integer (Load A; Const B; Add; Store A).
	OpIncLocal
	// OpJumpCmp pops b then a and branches to A when the comparison
	// named by operand B (one of OpEq..OpGe) holds (<cmp>; JumpNZ A —
	// fusing <cmp>; JumpZ negates the comparison first).
	OpJumpCmp

	// Closures: first-class functions as a third dispatch mechanism.
	// A closure is an ordinary heap object whose Fn names the lambda's
	// lowered static body and whose fields hold the captured values.

	// OpMakeClosure pops B captured values (pushed left to right) into a
	// new closure object over method A and pushes the closure. The
	// target must be a static method taking the closure itself as
	// argument 0.
	OpMakeClosure
	// OpCallClosure calls the closure at stack[-A]; A is the argument
	// count including the closure itself (which becomes the callee's
	// argument 0, mirroring the virtual-call receiver convention), and
	// B is the call-site ID. The call target is carried by the closure
	// value, not the instruction — closure sites are not class-bound.
	OpCallClosure

	numOpcodes
)

// NumOpcodes is the number of defined opcodes; cost tables are sized by it.
const NumOpcodes = int(numOpcodes)

// Instr is one fixed-width MJ VM instruction.
type Instr struct {
	Op   Opcode
	A, B int32
}

var opNames = [numOpcodes]string{
	OpNop: "nop", OpConst: "const", OpConstL: "constl",
	OpLoad: "load", OpStore: "store", OpPop: "pop", OpDup: "dup",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem", OpNeg: "neg",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge", OpNot: "not",
	OpJump: "jump", OpJumpZ: "jumpz", OpJumpNZ: "jumpnz",
	OpGetField: "getfield", OpPutField: "putfield", OpNew: "new",
	OpGetStatic: "getstatic", OpPutStatic: "putstatic",
	OpNewArr: "newarr", OpALoad: "aload", OpAStore: "astore", OpArrLen: "arrlen",
	OpCallStatic: "callstatic", OpCallVirtual: "callvirtual",
	OpReturn: "return", OpReturnVoid: "returnvoid",
	OpClassEq: "classeq", OpVTEq: "vteq", OpInstanceOf: "instanceof", OpCast: "cast",
	OpIsNull: "isnull", OpNull: "null",
	OpPrint: "print", OpHalt: "halt",
	OpLoadLoad: "loadload", OpLoadConst: "loadconst", OpAddConst: "addconst",
	OpIncLocal: "inclocal", OpJumpCmp: "jumpcmp",
	OpMakeClosure: "makeclosure", OpCallClosure: "callclosure",
}

// String returns the mnemonic for op.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return op < numOpcodes }

// IsCall reports whether op transfers control to another method.
func (op Opcode) IsCall() bool {
	return op == OpCallStatic || op == OpCallVirtual || op == OpCallClosure
}

// Role says what an instruction operand indexes inside its own method.
// Code that moves instructions — into another method, or to another pc —
// must move these operands with them; every other operand (an immediate,
// a class, method, field or call-site id, an arity) means the same
// wherever the instruction stands.
type Role uint8

const (
	RoleNone  Role = iota
	RoleLocal      // a local slot, below Method.NLocals
	RoleConst      // an index into Method.Consts
	RolePC         // an instruction index of the method
)

// operandRoles says which operands have a role ({A, B}; an opcode not
// listed has none). The verifier range-checks an operand because of its
// entry here and Rebase moves it because of the same entry. A branch is
// an opcode whose A is a pc: the interpreter, the verifier and Relayout
// all read the target there, so RolePC never stands in B.
var operandRoles = [numOpcodes][2]Role{
	OpConstL:    {RoleConst},
	OpLoad:      {RoleLocal},
	OpStore:     {RoleLocal},
	OpLoadLoad:  {RoleLocal, RoleLocal},
	OpLoadConst: {RoleLocal},
	OpIncLocal:  {RoleLocal},
	OpJump:      {RolePC},
	OpJumpZ:     {RolePC},
	OpJumpNZ:    {RolePC},
	OpJumpCmp:   {RolePC},
}

// Roles returns the roles of op's A and B operands; an undefined opcode
// (the verifier lets one stand where control cannot reach) has none.
func (op Opcode) Roles() (a, b Role) {
	if !op.Valid() {
		return RoleNone, RoleNone
	}
	return operandRoles[op][0], operandRoles[op][1]
}

// IsBranch reports whether op is a jump (conditional or not).
func (op Opcode) IsBranch() bool {
	a, _ := op.Roles()
	return a == RolePC
}

// IsCondBranch reports whether op is a conditional branch (both the
// branch target and the fallthrough are successors).
func (op Opcode) IsCondBranch() bool { return op != OpJump && op.IsBranch() }

// IsCmp reports whether op is an integer comparison usable as the B
// operand of an OpJumpCmp superinstruction.
func (op Opcode) IsCmp() bool { return op >= OpEq && op <= OpGe }

// NegateCmp returns the comparison with the opposite truth value
// (Eq<->Ne, Lt<->Ge, Le<->Gt); it panics on non-comparison opcodes.
func NegateCmp(op Opcode) Opcode {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	default:
		panic(fmt.Sprintf("NegateCmp(%v): not a comparison", op))
	}
}

// IsReturn reports whether op exits the current method.
func (op Opcode) IsReturn() bool { return op == OpReturn || op == OpReturnVoid }

// EncodeVirtual packs a vtable slot and an argument count (including
// the receiver) into the A operand of an OpCallVirtual instruction. The
// arity must travel with the instruction: the interpreter needs it to
// locate the receiver beneath the arguments before it can dispatch.
func EncodeVirtual(slot, nargs int) int32 {
	if slot < 0 || slot >= 1<<16 || nargs < 1 || nargs >= 1<<14 {
		panic(fmt.Sprintf("EncodeVirtual(%d, %d) out of range", slot, nargs))
	}
	return int32(slot) | int32(nargs)<<16
}

// DecodeVirtual unpacks an OpCallVirtual A operand.
func DecodeVirtual(a int32) (slot, nargs int) {
	return int(a & 0xffff), int(a >> 16)
}

// EncodeVTEq packs a vtable slot and an expected method ID into the A
// operand of an OpVTEq method-test guard.
func EncodeVTEq(slot, methodID int) int32 {
	if slot < 0 || slot >= 1<<15 || methodID < 0 || methodID >= 1<<16 {
		panic(fmt.Sprintf("EncodeVTEq(%d, %d) out of range", slot, methodID))
	}
	return int32(slot) | int32(methodID)<<15
}

// DecodeVTEq unpacks an OpVTEq A operand.
func DecodeVTEq(a int32) (slot, methodID int) {
	return int(a & 0x7fff), int(a >> 15)
}

// stackEffect returns (pops, pushes) for op. Calls are handled
// specially by the verifier because their arity is method-dependent.
func stackEffect(op Opcode) (pops, pushes int) {
	switch op {
	case OpNop, OpJump, OpHalt:
		return 0, 0
	case OpConst, OpConstL, OpLoad, OpGetStatic, OpNew, OpNull:
		return 0, 1
	case OpStore, OpPop, OpJumpZ, OpJumpNZ, OpPutStatic, OpPrint, OpReturn:
		return 1, 0
	case OpDup:
		return 1, 2
	case OpNeg, OpNot, OpGetField, OpNewArr, OpArrLen, OpClassEq, OpVTEq, OpInstanceOf, OpCast, OpIsNull, OpAddConst:
		return 1, 1
	case OpLoadLoad, OpLoadConst:
		return 0, 2
	case OpIncLocal:
		return 0, 0
	case OpJumpCmp:
		return 2, 0
	case OpAdd, OpSub, OpMul, OpDiv, OpRem,
		OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpALoad:
		return 2, 1
	case OpPutField:
		return 2, 0
	case OpAStore:
		return 3, 0
	case OpReturnVoid:
		return 0, 0
	default:
		return 0, 0
	}
}

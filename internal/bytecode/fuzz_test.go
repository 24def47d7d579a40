package bytecode_test

import (
	"bytes"
	"testing"

	"gocbs/internal/bytecode"
)

// fuzzSeeds are small valid programs that stress what the interpreter
// derives from the verifier's facts: a frame whose locals are exactly
// its arguments, a method with no locals and no operands at all, a
// closure without captures, a recursion deep enough that the shared
// stack must grow many times before the step limit cuts it off, an
// opcode nobody defined in code that control cannot reach — which the
// verifier, looking only where control goes, lets stand, and whatever
// the VM derives from a whole method must not mind — and, in the same
// place, branches to pcs the method does not have and a call to a method
// the program does not have, in a callee small enough to be inlined:
// whatever rewrites a method scans all of it.
func fuzzSeeds(f *testing.F) [][]byte {
	build := func(body func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder) []byte {
		pb := bytecode.NewProgramBuilder()
		pb.SetEntry(body(pb))
		p, err := pb.Link()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := bytecode.EncodeProgram(p, &buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	return [][]byte{
		build(func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder { // NLocals == NArgs
			callee := pb.NewFunc("callee", 1)
			callee.Emit(bytecode.OpLoad, 0)
			callee.Const(1)
			callee.Emit(bytecode.OpAdd)
			callee.Emit(bytecode.OpReturn)
			main := pb.NewFunc("main", 1)
			main.Emit(bytecode.OpLoad, 0)
			main.CallStatic(callee)
			main.Emit(bytecode.OpReturn)
			return main
		}),
		build(func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder { // NLocals == 0, MaxStack == 0
			nop := pb.NewFunc("nop", 0)
			nop.Emit(bytecode.OpReturnVoid)
			main := pb.NewFunc("main", 0)
			main.CallStatic(nop)
			main.Emit(bytecode.OpReturn)
			return main
		}),
		build(func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder { // closure, zero captures
			lambda := pb.NewFunc("lambda", 1)
			lambda.Const(7)
			lambda.Emit(bytecode.OpReturn)
			main := pb.NewFunc("main", 0)
			main.MakeClosure(lambda, 0)
			main.CallClosure(1)
			main.Emit(bytecode.OpReturn)
			return main
		}),
		build(func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder { // unbounded recursion
			deep := pb.NewFunc("deep", 1)
			deep.Emit(bytecode.OpLoad, 0)
			deep.Const(1)
			deep.Emit(bytecode.OpAdd)
			deep.CallStatic(deep)
			deep.Emit(bytecode.OpReturn)
			main := pb.NewFunc("main", 1)
			main.Emit(bytecode.OpLoad, 0)
			main.CallStatic(deep)
			main.Emit(bytecode.OpReturn)
			return main
		}),
		build(func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder { // undefined opcode, unreachable
			main := pb.NewFunc("main", 0)
			main.Const(7)
			main.Emit(bytecode.OpReturn)
			main.Emit(bytecode.Opcode(255))
			main.Const(1)
			main.Emit(bytecode.OpReturn)
			return main
		}),
		build(func(pb *bytecode.ProgramBuilder) *bytecode.MethodBuilder { // wild branches and a wild call, unreachable
			seven := pb.NewFunc("seven", 0)
			seven.Const(7)
			seven.Emit(bytecode.OpReturn)
			seven.Emit(bytecode.OpJumpZ, -5)
			seven.Emit(bytecode.OpJump, 9999)
			main := pb.NewFunc("main", 0)
			main.CallStatic(seven)
			main.Emit(bytecode.OpReturn)
			main.Emit(bytecode.OpJumpCmp, 1<<30, int32(bytecode.OpLt))
			main.Emit(bytecode.OpCallStatic, 808464432, 808464432)
			main.Emit(bytecode.OpHalt)
			return main
		}),
	}
}

// FuzzDecodeProgram: arbitrary bytes must never panic the decoder, never
// produce a program whose methods fail verification (Decode re-verifies
// internally, so a non-nil result is a safe program), and never produce
// one that panics the VM or a rewriter: every accepted program is run as
// it is and through fusion, cleanup and trivial inlining, unprofiled and
// under CBS (runAllWays).
func FuzzDecodeProgram(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	good := seeds[0]
	f.Add(good[:len(good)/2])
	f.Add([]byte("MJBC"))
	f.Add([]byte{})
	mut := append([]byte(nil), good...)
	mut[10] ^= 0xff
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := bytecode.DecodeProgram(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, m := range q.Methods {
			if err := bytecode.Verify(q, m); err != nil {
				t.Fatalf("decoder accepted unverifiable method %s: %v", m.Name, err)
			}
		}
		if q.Entry == nil || !q.Entry.Static {
			t.Fatal("decoder accepted program without a static entry")
		}
		runAllWays(t, q, "decoded program")
	})
}

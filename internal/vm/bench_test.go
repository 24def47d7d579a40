package vm_test

import (
	"fmt"
	"sync"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// benchRun times b.N calls of prog's entry on size in one VM, under p if
// not nil and with the timer at period if not 0, and reports the
// interpreter's cost per executed bytecode.
func benchRun(b *testing.B, prog *bytecode.Program, size int64, p vm.Profiler, period uint64) {
	b.Helper()
	m := vm.New(prog)
	m.SetProfiler(p)
	m.SetTimer(period)
	if _, err := m.Run(size); err != nil { // warm: stack grown, methods entered
		b.Fatal(err)
	}
	start := m.Instrs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(size); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.Instrs-start), "ns/instr")
}

// BenchmarkInterpreter runs each suite program's main(small) bare and
// unfused: the testing.B twin of the repo benchmark's vm_bare workload
// (per-layer rows vm.mcyc_per_s.<program>, vm.ns_per_instr).
func BenchmarkInterpreter(b *testing.B) {
	for _, bm := range bench.All() {
		prog, err := bm.Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bm.Name, func(b *testing.B) { benchRun(b, prog, bm.Small, nil, 0) })
	}
}

// BenchmarkInterpreterPair runs each suite program's main(small) on two
// VMs made one after the other, each on a goroutine of its own, as a
// fleet's pushers and the repo benchmark's plan_loop do: what one VM's
// hot fields cost the other when the allocator puts them in one cache
// line (TestStructTailIsCold). Compare with BenchmarkInterpreter at
// GOMAXPROCS 2: ns/instr here counts both VMs' instructions, so two VMs
// that do not disturb each other read half of one VM's figure.
func BenchmarkInterpreterPair(b *testing.B) {
	for _, bm := range bench.All() {
		prog, err := bm.Compile()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bm.Name, func(b *testing.B) {
			ms := [2]*vm.VM{vm.New(prog.Clone()), vm.New(prog.Clone())}
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, m := range ms {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						if _, err := m.Run(bm.Small); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ms[0].Instrs+ms[1].Instrs), "ns/instr")
		})
	}
}

// dispatchKernel links main(n) { for i in [0,n) { body }; return acc }.
// kernel runs once, ahead of the loop — it declares classes and callees
// and emits any set-up code — and returns the emitter of one copy of
// the loop body, which works on the locals acc (1) and i (2) plus any
// the kernel allocated. Eight copies make one trip, so the class under
// test is most of what executes.
func dispatchKernel(b testing.TB, kernel func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) func()) *bytecode.Program {
	b.Helper()
	pb := bytecode.NewProgramBuilder()
	mb := pb.NewFunc("main", 1)
	acc, i := mb.AllocLocal(), mb.AllocLocal()
	body := kernel(pb, mb)
	head, done := mb.NewLabel(), mb.NewLabel()
	mb.Bind(head)
	mb.Emit(bytecode.OpLoad, int32(i))
	mb.Emit(bytecode.OpLoad, 0)
	mb.Emit(bytecode.OpLt)
	mb.Branch(bytecode.OpJumpZ, done)
	for k := 0; k < 8; k++ {
		body()
	}
	mb.Emit(bytecode.OpLoad, int32(i))
	mb.Const(1)
	mb.Emit(bytecode.OpAdd)
	mb.Emit(bytecode.OpStore, int32(i))
	mb.Branch(bytecode.OpJump, head)
	mb.Bind(done)
	mb.Emit(bytecode.OpLoad, int32(acc))
	mb.Emit(bytecode.OpReturn)
	pb.SetEntry(mb)
	prog, err := pb.Link()
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// leaf adds int name(x) { return x + 1 } as a static function or, on
// cb, as a virtual method (whose x is the local after the receiver).
func leaf(pb *bytecode.ProgramBuilder, cb *bytecode.ClassBuilder, name string) *bytecode.MethodBuilder {
	var f *bytecode.MethodBuilder
	x := int32(0)
	if cb == nil {
		f = pb.NewFunc(name, 1)
	} else {
		f, x = cb.NewMethod(name, false, 2), 1
	}
	f.Emit(bytecode.OpLoad, x)
	f.Const(1)
	f.Emit(bytecode.OpAdd)
	f.Emit(bytecode.OpReturn)
	return f
}

// windowsKernel is a loop body in which every row of the execution
// image's window catalogue runs (TestWindowsKernelHoldsEveryRow): field,
// static and array traffic, masked sums and the three shapes of compare
// and branch, with pops and stores between them where the stack needs it.
func windowsKernel(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) func() {
	const acc, i = 1, 2
	cell := pb.NewClass("Cell", nil)
	x := int32(cell.AddField("x", false))
	g, s := int32(pb.AddStaticInit("g", 0)), int32(pb.AddStaticInit("s", 5))
	obj, arr, t, k := int32(mb.AllocLocal()), int32(mb.AllocLocal()), int32(mb.AllocLocal()), int32(mb.AllocLocal())
	mb.Emit(bytecode.OpNew, int32(cell.ID()))
	mb.Emit(bytecode.OpStore, obj)
	mb.Const(4)
	mb.Emit(bytecode.OpNewArr)
	mb.Emit(bytecode.OpDup)
	mb.Emit(bytecode.OpStore, arr)
	mb.Emit(bytecode.OpPutStatic, g)
	mb.Const(1)
	mb.Emit(bytecode.OpStore, k)
	return func() {
		next := func(op bytecode.Opcode) { // a conditional branch to the instruction behind it
			l := mb.NewLabel()
			mb.Branch(op, l)
			mb.Bind(l)
		}
		mb.Emit(bytecode.OpLoad, obj) // load·getfield
		mb.Emit(bytecode.OpGetField, x)
		mb.Emit(bytecode.OpPop)
		mb.Emit(bytecode.OpLoad, obj) // getfield·load, add·store
		mb.Emit(bytecode.OpGetField, x)
		mb.Emit(bytecode.OpLoad, i)
		mb.Emit(bytecode.OpAdd)
		mb.Emit(bytecode.OpStore, t)
		mb.Emit(bytecode.OpLoad, t) // load·load, add·const·and, store·load
		mb.Emit(bytecode.OpLoad, acc)
		mb.Emit(bytecode.OpAdd)
		mb.Const(0xFFFFF)
		mb.Emit(bytecode.OpAnd)
		mb.Emit(bytecode.OpStore, acc)
		mb.Emit(bytecode.OpLoad, arr) // load·aload
		mb.Emit(bytecode.OpLoad, k)
		mb.Emit(bytecode.OpALoad)
		mb.Const(3) // const·and, const·add (and its const·sub)
		mb.Emit(bytecode.OpAnd)
		mb.Const(5)
		mb.Emit(bytecode.OpAdd)
		mb.Const(2)
		mb.Emit(bytecode.OpSub)
		mb.Emit(bytecode.OpPop)
		mb.Emit(bytecode.OpGetStatic, g) // getstatic·load·aload
		mb.Emit(bytecode.OpLoad, k)
		mb.Emit(bytecode.OpALoad)
		mb.Emit(bytecode.OpPop)
		mb.Emit(bytecode.OpGetStatic, s) // getstatic·load, cmp·jump
		mb.Emit(bytecode.OpLoad, k)
		mb.Emit(bytecode.OpLt)
		next(bytecode.OpJumpNZ)
		mb.Emit(bytecode.OpLoad, k) // load·getstatic, arrlen·cmp·jump
		mb.Emit(bytecode.OpGetStatic, g)
		mb.Emit(bytecode.OpArrLen)
		mb.Emit(bytecode.OpGe)
		next(bytecode.OpJumpZ)
		mb.Emit(bytecode.OpLoad, i) // const·cmp·jump
		mb.Const(3)
		mb.Emit(bytecode.OpEq)
		next(bytecode.OpJumpZ)
		mb.Emit(bytecode.OpLoad, acc) // load·const
		mb.Const(7)
		mb.Emit(bytecode.OpMul)
		mb.Emit(bytecode.OpPop)
		l := mb.NewLabel() // inclocal·jump
		mb.Emit(bytecode.OpLoad, t)
		mb.Const(1)
		mb.Emit(bytecode.OpAdd)
		mb.Emit(bytecode.OpStore, t)
		mb.Branch(bytecode.OpJump, l)
		mb.Bind(l)
	}
}

// callListener is the cheapest possible CallListener: with it installed
// every call leaves the interpreter's registers for the hook.
type callListener struct{ calls uint64 }

func (c *callListener) Name() string { return "call-listener" }

func (c *callListener) OnCall(*vm.VM, *bytecode.Method, int, *bytecode.Method) { c.calls++ }

// tickCounter is the cheapest possible TickListener.
type tickCounter struct{ ticks uint64 }

func (c *tickCounter) Name() string { return "tick-counter" }

func (c *tickCounter) OnTimerTick(*vm.VM) { c.ticks++ }

// BenchmarkDispatch times one opcode class at a time, as the repo
// benchmark's microkernels do from outside (vm.ns_per_instr.<class>);
// call_static_hooked is call_static again with a CallListener installed,
// the round trip out of the registers that the calling-context collector
// still pays; call_static_counted is it under the instrumented exhaustive
// profiler, a CallCounter, the path profiler.exhaustive.ns_per_call pays
// for; call_virtual_counted is call_virtual_rotating, whose every call
// point sees eight receiver classes in turn, counted the same way: the
// case a counter with room for one callee per point loses. Two rows price what
// charging by span adds: arith_timer is arith again with a tick due every
// 97 cycles, inside almost every one of its hundred-instruction lines, so
// it is what stepping round a tick costs; short_spans is all branches,
// one span check for every one or two instructions. windows is made of
// the execution image's catalogue, every row of it: what a window saves.
func BenchmarkDispatch(b *testing.B) {
	const acc, i = 1, 2
	kernels := []struct {
		name   string
		kernel func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) func()
	}{
		{"arith", func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) func() {
			return func() { // acc = ((acc*31 + i) ^ (acc >> 3)) & 0xFFFFF
				mb.Emit(bytecode.OpLoad, acc)
				mb.Const(31)
				mb.Emit(bytecode.OpMul)
				mb.Emit(bytecode.OpLoad, i)
				mb.Emit(bytecode.OpAdd)
				mb.Emit(bytecode.OpLoad, acc)
				mb.Const(3)
				mb.Emit(bytecode.OpShr)
				mb.Emit(bytecode.OpXor)
				mb.Const(0xFFFFF)
				mb.Emit(bytecode.OpAnd)
				mb.Emit(bytecode.OpStore, acc)
			}
		}},
		{"field_array", func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) func() {
			cell := pb.NewClass("Cell", nil)
			x := int32(cell.AddField("x", false))
			g := int32(pb.AddStaticInit("g", 5))
			obj, arr := int32(mb.AllocLocal()), int32(mb.AllocLocal())
			mb.Emit(bytecode.OpNew, int32(cell.ID()))
			mb.Emit(bytecode.OpStore, obj)
			mb.Const(4)
			mb.Emit(bytecode.OpNewArr)
			mb.Emit(bytecode.OpStore, arr)
			return func() { // obj.x = g; arr[1] = obj.x; g = arr[1] + 1
				mb.Emit(bytecode.OpLoad, obj)
				mb.Emit(bytecode.OpGetStatic, g)
				mb.Emit(bytecode.OpPutField, x)
				mb.Emit(bytecode.OpLoad, arr)
				mb.Const(1)
				mb.Emit(bytecode.OpLoad, obj)
				mb.Emit(bytecode.OpGetField, x)
				mb.Emit(bytecode.OpAStore)
				mb.Emit(bytecode.OpLoad, arr)
				mb.Const(1)
				mb.Emit(bytecode.OpALoad)
				mb.Const(1)
				mb.Emit(bytecode.OpAdd)
				mb.Emit(bytecode.OpPutStatic, g)
			}
		}},
		{"alloc", func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) func() {
			cell := pb.NewClass("Cell", nil)
			cell.AddField("x", false)
			cell.AddField("y", false)
			return func() {
				mb.Emit(bytecode.OpNew, int32(cell.ID()))
				mb.Emit(bytecode.OpPop)
				mb.Const(4)
				mb.Emit(bytecode.OpNewArr)
				mb.Emit(bytecode.OpPop)
			}
		}},
		{"call_static", func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) func() {
			f := leaf(pb, nil, "inc")
			return func() {
				mb.Emit(bytecode.OpLoad, acc)
				mb.CallStatic(f)
				mb.Emit(bytecode.OpStore, acc)
			}
		}},
		{"call_virtual", func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) func() {
			base := pb.NewClass("Base", nil)
			leaf(pb, base, "inc")
			sub := pb.NewClass("Sub", base)
			leaf(pb, sub, "inc")
			recv := int32(mb.AllocLocal())
			mb.Emit(bytecode.OpNew, int32(sub.ID()))
			mb.Emit(bytecode.OpStore, recv)
			return func() {
				mb.Emit(bytecode.OpLoad, recv)
				mb.Emit(bytecode.OpLoad, acc)
				mb.CallVirtual(base, "inc")
				mb.Emit(bytecode.OpStore, acc)
			}
		}},
		{"call_virtual_rotating", func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) func() {
			base := pb.NewClass("Base", nil)
			leaf(pb, base, "inc")
			recvs := int32(mb.AllocLocal())
			mb.Const(8)
			mb.Emit(bytecode.OpNewArr)
			mb.Emit(bytecode.OpStore, recvs)
			for k := int32(0); k < 8; k++ {
				sub := pb.NewClass(fmt.Sprint("Sub", k), base)
				leaf(pb, sub, "inc")
				mb.Emit(bytecode.OpLoad, recvs)
				mb.Const(int64(k))
				mb.Emit(bytecode.OpNew, int32(sub.ID()))
				mb.Emit(bytecode.OpAStore)
			}
			return func() { // acc = recvs[i&7].inc(acc)
				mb.Emit(bytecode.OpLoad, recvs)
				mb.Emit(bytecode.OpLoad, i)
				mb.Const(7)
				mb.Emit(bytecode.OpAnd)
				mb.Emit(bytecode.OpALoad)
				mb.Emit(bytecode.OpLoad, acc)
				mb.CallVirtual(base, "inc")
				mb.Emit(bytecode.OpStore, acc)
			}
		}},
		{"windows", windowsKernel},
		{"short_spans", func(_ *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) func() {
			return func() { // three branches to the next instruction: spans of 2, 2 and 1
				a, b, c := mb.NewLabel(), mb.NewLabel(), mb.NewLabel()
				mb.Emit(bytecode.OpLoad, i)
				mb.Branch(bytecode.OpJumpZ, a)
				mb.Bind(a)
				mb.Emit(bytecode.OpLoad, acc)
				mb.Branch(bytecode.OpJumpNZ, b)
				mb.Bind(b)
				mb.Branch(bytecode.OpJump, c)
				mb.Bind(c)
			}
		}},
		{"call_closure", func(pb *bytecode.ProgramBuilder, mb *bytecode.MethodBuilder) func() {
			f := pb.NewFunc("lambda", 1) // the closure itself is argument 0
			f.Const(1)
			f.Emit(bytecode.OpReturn)
			fn := int32(mb.AllocLocal())
			mb.MakeClosure(f, 0)
			mb.Emit(bytecode.OpStore, fn)
			return func() {
				mb.Emit(bytecode.OpLoad, fn)
				mb.CallClosure(1)
				mb.Emit(bytecode.OpStore, acc)
			}
		}},
	}
	for _, k := range kernels {
		prog := dispatchKernel(b, k.kernel)
		b.Run(k.name, func(b *testing.B) { benchRun(b, prog, 2_000, nil, 0) })
		switch k.name {
		case "arith":
			b.Run(k.name+"_timer", func(b *testing.B) { benchRun(b, prog, 2_000, &tickCounter{}, 97) })
		case "call_static":
			b.Run(k.name+"_hooked", func(b *testing.B) { benchRun(b, prog, 2_000, &callListener{}, 0) })
			b.Run(k.name+"_counted", func(b *testing.B) { benchRun(b, prog, 2_000, profiler.NewInstrumented(), 0) })
		case "call_virtual_rotating":
			b.Run("call_virtual_counted", func(b *testing.B) { benchRun(b, prog, 2_000, profiler.NewInstrumented(), 0) })
		}
	}
}

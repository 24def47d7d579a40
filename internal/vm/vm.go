// Package vm implements the MJ virtual machine: a deterministic
// bytecode interpreter with the runtime structure the paper's profiling
// technique depends on — prologue/epilogue/backedge yieldpoints guarded
// by a tri-state control word, a virtual timer that periodically
// requests yieldpoints, a call-stack walker, and a modeled cycle
// counter that separates workload cycles from profiling cycles.
//
// Determinism is the central property: given the same program, inputs,
// and profiler seed, every run executes the identical instruction
// stream and charges the identical cycles, so profile accuracy and
// overhead are exactly reproducible. The paper's run-to-run variation
// (median of 10) is recovered by varying only the profiler's seed: its
// initial skips and where in its period each tick falls (TickPlacer).
package vm

import (
	"fmt"

	"gocbs/internal/bytecode"
)

// Value is one MJ runtime value: an integer or an object reference.
// Exactly one of the interpretations is meaningful at a time; the MJ
// typechecker guarantees programs never confuse them.
type Value struct {
	I int64
	R *Object
}

// IntV wraps an integer as a Value.
func IntV(i int64) Value { return Value{I: i} }

// RefV wraps a reference as a Value.
func RefV(o *Object) Value { return Value{R: o} }

// Object is a heap object: a class instance (Fields), an array (Elems,
// with Class == nil), or a closure (Fn set, Fields holding the
// captured values, Class == nil).
type Object struct {
	Class  *bytecode.Class
	Fields []Value
	Elems  []Value
	// Fn, when non-nil, makes this object a closure over the named
	// static method; the closure itself is passed as argument 0 when
	// called and Fields are the captured values.
	Fn *bytecode.Method
}

// YieldKind identifies which yieldpoint fired.
type YieldKind uint8

// Yieldpoint kinds, matching Jikes RVM's placement (§5.1 of the paper).
const (
	YieldPrologue YieldKind = iota
	YieldEpilogue
	YieldBackedge
)

func (k YieldKind) String() string {
	switch k {
	case YieldPrologue:
		return "prologue"
	case YieldEpilogue:
		return "epilogue"
	case YieldBackedge:
		return "backedge"
	default:
		return "yield?"
	}
}

// Control-word states for the tri-state yieldpoint flag (§5.1):
// prologue and epilogue yieldpoints are taken when the word is nonzero;
// backedge yieldpoints only when it is positive.
const (
	ControlNone      int32 = 0  // no yieldpoints taken
	ControlPrologues int32 = -1 // prologue/epilogue yieldpoints taken
	ControlAll       int32 = 1  // all yieldpoints taken (timer just fired)
)

// Profiler is the typed hookup for anything installable on a VM via
// SetProfiler. Name identifies the profiler in reports and
// diagnostics. The VM additionally wires up whichever of the optional
// interfaces (TickListener, YieldListener, CallListener, EntryListener,
// CallCounter) the implementation also satisfies; implementing none
// is legal — such a profiler simply observes nothing. Implementations
// should carry a compile-time assertion, e.g.
//
//	var _ vm.Profiler = (*CBS)(nil)
type Profiler interface {
	Name() string
}

// TickListener is notified when the virtual timer fires. The listener
// typically sets the VM's control word to request yieldpoints.
type TickListener interface {
	OnTimerTick(vm *VM)
}

// TickPlacer is a profiler that says where in its period each tick
// falls: a timer that fires at exactly k·period opens every VM's windows
// at the same points of a deterministic program, and a real interrupt
// lands where it lands. Tick k (from 1) is due PlaceTick(k, period)
// cycles, a value below period, after (k−½)·period: still one tick a
// period, so tick counts and what ticks cost hold. The answer is a
// function of its arguments alone (the VM may ask twice); the first
// placer among a VM's profilers places for all of them, and with none a
// tick is due at k·period.
type TickPlacer interface {
	PlaceTick(k, period uint64) uint64
}

// YieldListener is notified when a yieldpoint is taken (control word
// permitting). All sampling profilers hang off this hook.
type YieldListener interface {
	OnYieldpoint(vm *VM, kind YieldKind)
}

// CallListener observes every dynamic call with the VM as of the call to
// look at, which takes every call out of the interpreter's registers: a
// profiler that only counts calls is a CallCounter instead. The hook is
// skipped entirely when no listener is installed.
type CallListener interface {
	OnCall(vm *VM, caller *bytecode.Method, site int, callee *bytecode.Method)
}

// CallCounter is a profiler whose whole work at a call is counting it.
// The VM counts, where the call happens, and hands over totals; a call at
// a point nobody counts is a call nobody watches. With a CallListener as
// well, the VM calls the listener first and counts after.
type CallCounter interface {
	// Counts reports whether calls from site in caller are counted and
	// what each costs in profiling cycles under c. It is asked once per
	// call instruction, where the VM sums caller's span table from c.
	Counts(caller *bytecode.Method, site int, c *CostModel) (cost uint64, ok bool)
	// Fold adds n calls of callee from (caller, site), all method IDs. The
	// counts since the last Fold arrive whenever something outside the
	// interpreter can look: when Call returns, with a result or a trap,
	// before a timer tick is delivered, and when SetProfiler replaces the
	// profiler. An entry pushed by the harness is folded as it happens,
	// with caller and site -1.
	Fold(caller, site, callee int, n uint64)
}

// EntryListener observes every method entry (after the frame is
// pushed), independent of yieldpoints. The code-patching comparator
// uses it to model per-method prologue listeners.
type EntryListener interface {
	OnEntry(vm *VM, m *bytecode.Method)
}

// Frame is one activation record. Its locals and operands live in the
// VM's one shared stack: locals at [base, base+M.NLocals), operands
// above them.
type Frame struct {
	M *bytecode.Method
	// PC is the pc of the call a frame below the top is executing; the
	// top frame's is current as of the interpreter's last sync point.
	PC int
	// Site is the call-site ID whose execution created this frame, or
	// -1 for frames pushed directly by the harness.
	Site int
	// CallerPC is the pc of the call instruction in the caller.
	CallerPC int
	// base is where this frame starts in the shared stack; returning
	// cuts the stack back to it.
	base int
}

// Bounds on what one program may ask of the host: the shared stack (in
// slots, all frames together) and one array. The MJ reference
// interpreter bounds call depth instead (maxRefDepth in internal/mj,
// with the measurements that chose it).
const (
	maxStackSlots = 1 << 24
	maxArrayLen   = 1 << 24
)

// VM executes one MJ program. A VM is single-threaded and not safe for
// concurrent use; experiments run one VM per goroutine.
type VM struct {
	Prog *bytecode.Program
	// Cost is set before the first Run and left alone after it. Its Instr
	// row is summed into a method's span table when the method is first
	// entered (see span.go), while an instruction taken singly — under
	// Trace, or where a tick falls — and every call and allocation read
	// the model as it is then: replaced or edited between two Runs it
	// prices one program by two models, and nothing says so
	// (TestCostModelIsReadAtFirstEntry pins the simplest case). The model
	// prices the instruction set only: a window of the execution image
	// (image.go) has no row in it and runs inside a span paid for at its
	// parts' prices, as the five fused opcodes a program may carry are
	// priced at theirs.
	Cost *CostModel

	// Cycles is the total modeled cycle count (workload + profiling).
	Cycles uint64
	// ProfilingCycles is the subset of Cycles charged to profiling
	// work (taken yieldpoints, counter updates, stack walks). Overhead
	// is ProfilingCycles / (Cycles - ProfilingCycles).
	ProfilingCycles uint64
	// Instrs counts executed bytecode instructions.
	Instrs uint64
	// Calls counts executed dynamic calls.
	Calls uint64

	// TimerPeriod is the virtual timer granularity in cycles; 0
	// disables the timer.
	TimerPeriod uint64
	nextTimer   uint64

	// ControlWord is the tri-state yieldpoint flag (see Control*).
	ControlWord int32

	// EntryCheckCost, when positive, charges that many profiling
	// cycles on *every* method entry, modeling a VM with no existing
	// prologue test to overload (the paper's three-instruction case).
	// The default 0 models the overloaded-flag implementation.
	EntryCheckCost uint64

	// EpilogueYieldpoints controls whether method returns execute a
	// yieldpoint. Jikes RVM places yieldpoints in prologues, epilogues,
	// and backedges; J9 only checks on method entry, so the J9-flavour
	// experiments disable this. Set by New to true.
	EpilogueYieldpoints bool

	// MaxSteps aborts runaway programs (0 = no limit).
	MaxSteps uint64

	// Output accumulates values printed by OpPrint.
	Output []int64

	// Trace, when non-nil, is invoked before every instruction with
	// the executing method and pc — a debugging aid (see mjc -dis for
	// static inspection). Tracing charges no modeled cycles.
	Trace func(m *bytecode.Method, pc int, ins bytecode.Instr)

	statics []Value
	frames  []Frame
	stack   []Value

	// counter is the CallCounter installed and pending the counters that
	// have moved since the last fold (count). slowCalls tallies the calls
	// that went through enter and slowCounts those counted there:
	// TestCountedCallsStayInRegisters bounds them.
	counter               CallCounter
	pending               []counted
	slowCalls, slowCounts uint64

	// limit and deadline are what a span's charge is tested against
	// between sync points, quietCall and quietReturn whether a call and a
	// return may push and pop their frame in run's registers (see bound);
	// spans holds a span table and an execution image per method entered,
	// by method ID.
	limit, deadline        uint64
	quietCall, quietReturn bool
	spans                  []summary

	// What follows is read at hooks and in enter only, and stays last: the
	// allocator may put another VM right behind this one, whose counters,
	// written at every span, then share a cache line with this one's tail.
	// With spans there, two VMs on two threads ran 10-35 % slower.
	calls    []CallListener
	entries  []EntryListener
	ticks    []TickListener
	yields   []YieldListener
	placer   TickPlacer
	tickN    uint64 // the next tick's number, from 1
	tickDue  uint64 // tickN periods after SetTimer: where it falls unplaced
	nExec    int    // methods entered at least once
	maxStack int    // maxStackSlots, but in tests
}

// New creates a VM for prog with the default cost model and a disabled
// timer. A caller with a cost model of its own assigns Cost before the
// VM runs anything (see the field).
func New(prog *bytecode.Program) *VM {
	statics := make([]Value, prog.NumStatics)
	for i, init := range prog.StaticInit {
		statics[i] = IntV(init)
	}
	return &VM{
		Prog:                prog,
		Cost:                DefaultCostModel(),
		statics:             statics,
		spans:               make([]summary, len(prog.Methods)),
		maxStack:            maxStackSlots,
		EpilogueYieldpoints: true,
	}
}

// SetProfiler installs the given profilers — e.g. a CBS profiler
// collecting the DCG plus an adaptive controller consuming hotness ticks
// — in place of whatever was installed: each is wired to the hooks whose
// optional interface it implements, and each event goes to those parts in
// argument order, so parts that watch no call leave calls unwatched. Nil
// parts are skipped; none detaches all hooks. The VM counts for one
// counter: a second CallCounter among the parts is a programming error.
// The counts the old profilers have not seen go to them first, and every
// summary is dropped: its counted points are the old counter's.
func (vm *VM) SetProfiler(parts ...Profiler) {
	vm.fold()
	vm.ticks, vm.yields, vm.calls, vm.entries, vm.counter, vm.placer = nil, nil, nil, nil, nil, nil
	for _, p := range parts {
		if t, ok := p.(TickListener); ok {
			vm.ticks = append(vm.ticks, t)
		}
		if pl, ok := p.(TickPlacer); ok && vm.placer == nil {
			vm.placer = pl
		}
		if y, ok := p.(YieldListener); ok {
			vm.yields = append(vm.yields, y)
		}
		if c, ok := p.(CallListener); ok {
			vm.calls = append(vm.calls, c)
		}
		if e, ok := p.(EntryListener); ok {
			vm.entries = append(vm.entries, e)
		}
		if c, ok := p.(CallCounter); ok {
			if vm.counter != nil {
				panic("vm.SetProfiler: " + p.Name() + " is a second CallCounter")
			}
			vm.counter = c
		}
	}
	for i := range vm.spans {
		vm.spans[i].first = nil // covers nothing: table makes it again
	}
	vm.nextTimer = 0 // the pending tick is the new placer's to place
}

// SetTimer enables the virtual timer with the given period in cycles.
// Tick k is due k periods from now, or where the profilers' TickPlacer
// puts it within half a period of that: bound works the deadline out from
// the placer and period it finds, so SetTimer and SetProfiler may come in
// either order.
func (vm *VM) SetTimer(period uint64) {
	vm.TimerPeriod = period
	vm.tickN, vm.tickDue, vm.nextTimer = 1, vm.Cycles+period, 0
}

// placeTick sets nextTimer, the deadline of tick tickN; no placement puts
// it at cycle 0, which stands for "not placed yet".
func (vm *VM) placeTick() {
	vm.nextTimer = vm.tickDue
	if vm.placer != nil {
		vm.nextTimer += vm.placer.PlaceTick(vm.tickN, vm.TimerPeriod) - vm.TimerPeriod/2
	}
}

// Static returns the value of the named static slot.
func (vm *VM) Static(name string) (Value, error) {
	i := vm.Prog.StaticSlot(name)
	if i < 0 {
		return Value{}, fmt.Errorf("no static named %q", name)
	}
	return vm.statics[i], nil
}

// MethodsExecuted returns how many distinct methods have been entered.
func (vm *VM) MethodsExecuted() int { return vm.nExec }

// BaseCycles returns the modeled cycles attributable to the workload
// itself (total minus profiling).
func (vm *VM) BaseCycles() uint64 { return vm.Cycles - vm.ProfilingCycles }

// Overhead returns profiling cycles as a fraction of base cycles.
func (vm *VM) Overhead() float64 {
	base := vm.BaseCycles()
	if base == 0 {
		return 0
	}
	return float64(vm.ProfilingCycles) / float64(base)
}

// Depth returns the current call-stack depth.
func (vm *VM) Depth() int { return len(vm.frames) }

// ChargeProfiling adds n cycles, attributed to profiling work. The
// charge advances the virtual clock, so heavy profiling perturbs timer
// phase exactly as real profiling perturbs real time.
func (vm *VM) ChargeProfiling(n uint64) {
	vm.Cycles += n
	vm.ProfilingCycles += n
}

// ChargeCycles advances the clock by n cycles of non-profiling work,
// e.g. modeled compilation time spent by the adaptive system.
func (vm *VM) ChargeCycles(n uint64) {
	vm.Cycles += n
}

// chargeWork adds n workload cycles.
func (vm *VM) chargeWork(n uint64) {
	vm.Cycles += n
}

// takeYieldpoint transfers to the runtime when a yieldpoint's condition
// holds. The transfer itself costs cycles (charged to profiling, since
// without a profiler the control word would stay zero).
func (vm *VM) takeYieldpoint(kind YieldKind) {
	vm.ChargeProfiling(vm.Cost.YieldpointTaken)
	for _, y := range vm.yields {
		y.OnYieldpoint(vm, kind)
	}
}

// WalkStack visits frames top-down (innermost first) as (method, pc);
// pc is the frame's current program counter (for non-top frames, the
// pc of the call instruction being executed). The walk stops early if
// fn returns false. The walker charges no cycles; samplers charge
// per-frame costs themselves via the cost model.
func (vm *VM) WalkStack(fn func(m *bytecode.Method, pc int) bool) {
	for i := len(vm.frames) - 1; i >= 0; i-- {
		f := &vm.frames[i]
		if !fn(f.M, f.PC) {
			return
		}
	}
}

// WalkCallers visits frames top-down as (method, site) pairs, where
// site is the call-site ID whose execution created the frame (-1 for
// harness-pushed frames). Context-sensitive samplers use it to capture
// full call paths.
func (vm *VM) WalkCallers(fn func(m *bytecode.Method, site int) bool) {
	for i := len(vm.frames) - 1; i >= 0; i-- {
		f := &vm.frames[i]
		if !fn(f.M, f.Site) {
			return
		}
	}
}

// TopCallEdge returns the innermost dynamic call edge: the top frame's
// method as callee, the frame below as caller, and the call-site ID
// that created the top frame. ok is false when fewer than two frames
// are live or the top frame was pushed by the harness.
func (vm *VM) TopCallEdge() (caller *bytecode.Method, site int, callee *bytecode.Method, ok bool) {
	n := len(vm.frames)
	if n < 2 {
		return nil, 0, nil, false
	}
	top := &vm.frames[n-1]
	if top.Site < 0 {
		return nil, 0, nil, false
	}
	return vm.frames[n-2].M, top.Site, top.M, true
}

// TopMethod returns the currently executing method, or nil.
func (vm *VM) TopMethod() *bytecode.Method {
	if len(vm.frames) == 0 {
		return nil
	}
	return vm.frames[len(vm.frames)-1].M
}

// trap builds a runtime error annotated with the executing frame's
// location. Call unwinds the dead frames.
func (vm *VM) trap(format string, args ...any) error {
	f := vm.frame()
	return fmt.Errorf("trap at %s@%d: %s", f.M.Name, f.PC, fmt.Sprintf(format, args...))
}

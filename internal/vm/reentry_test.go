package vm_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/mj"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// liveFrames is a tick listener that records the deepest stack it saw
// through each accessor and every method it met on a walk.
type liveFrames struct {
	ticks, maxDepth, maxWalked int
	seen                       map[string]bool
}

func (l *liveFrames) Name() string { return "live-frames" }

func (l *liveFrames) OnTimerTick(m *vm.VM) {
	l.ticks++
	l.maxDepth = max(l.maxDepth, m.Depth())
	walked := 0
	m.WalkCallers(func(meth *bytecode.Method, _ int) bool {
		walked++
		l.seen[meth.Name] = true
		return true
	})
	l.maxWalked = max(l.maxWalked, walked)
}

// A trap unwinds the activations it abandons: a VM reused after an
// error is at depth 0, does not grow, and a stack-walking sampler on
// the next run sees that run's frames and no others.
func TestTrapUnwindsDeadFrames(t *testing.T) {
	prog, err := mj.Compile(`
		int c(int x) { return 100 / x; }
		int b(int x) { return c(x) + 1; }
		int a(int x) { return b(x) + 1; }
		int spin(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) { s = s + i; } return s; }
		int quiet(int x) { return spin(2000) * 0 + x; }
		int main(int x) { if (x > 50) { return quiet(x); } return a(x) + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	m := vm.New(prog)
	for i := 0; i < 3; i++ {
		_, err := m.Run(0)
		if err == nil || !strings.Contains(err.Error(), "$Globals.c@") || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("run %d: want a division trap located in c, got %v", i, err)
		}
		if m.Depth() != 0 {
			t.Fatalf("run %d: Depth() = %d after a trap four frames deep, want 0", i, m.Depth())
		}
		if m.TopMethod() != nil {
			t.Fatalf("run %d: TopMethod() = %s after a trap", i, m.TopMethod().Name)
		}
	}
	if v, err := m.Run(5); err != nil || v.I != 23 {
		t.Fatalf("run after traps = %d, %v; want 23", v.I, err)
	}

	// main -> quiet -> spin never enters a, b or c: a context-sensitive
	// sampler must not find them under the live frames.
	live := &liveFrames{seen: map[string]bool{}}
	m.SetProfiler(live)
	m.SetTimer(500)
	if v, err := m.Run(77); err != nil || v.I != 77 {
		t.Fatalf("sampled run = %d, %v; want 77", v.I, err)
	}
	if live.ticks == 0 {
		t.Fatal("the timer never fired")
	}
	if live.maxDepth > 3 || live.maxWalked > 3 {
		t.Errorf("sampler saw depth %d, walked %d frames; main -> quiet -> spin is 3", live.maxDepth, live.maxWalked)
	}
	for _, dead := range []string{"$Globals.a", "$Globals.b", "$Globals.c"} {
		if live.seen[dead] {
			t.Errorf("stack walk met %s, a frame abandoned by an earlier trap", dead)
		}
	}
}

// nester is a CBS profiler whose yieldpoint handler, every so often,
// runs a deep recursion through vm.Call before handing the event on:
// each time deeper than the last, so that vm.frames and vm.stack are
// both reallocated while the interrupted frames are suspended in the
// hook. It hides the nested run from the profile and from the clock, so
// the only way it can show is through something the interpreter kept
// across the hook.
type nester struct {
	*profiler.CBS
	deep          *bytecode.Method
	events, calls int
	failed        error
}

func (n *nester) OnYieldpoint(m *vm.VM, kind vm.YieldKind) {
	n.events++
	if n.deep != nil && n.failed == nil && (n.events <= 6 || n.events%997 == 0) {
		cycles, prof, instrs, calls := m.Cycles, m.ProfilingCycles, m.Instrs, m.Calls
		word, period, depth := m.ControlWord, m.TimerPeriod, m.Depth()
		m.SetProfiler(nil)
		m.ControlWord, m.TimerPeriod = vm.ControlNone, 0
		n.calls++
		want := int64(1500 * n.calls)
		v, err := m.Call(n.deep, vm.IntV(want))
		if err == nil && (v.I != want || m.Depth() != depth) {
			err = fmt.Errorf("nested deep(%d) = %d leaving depth %d, want depth %d", want, v.I, m.Depth(), depth)
		}
		n.failed = err
		m.SetProfiler(n)
		m.ControlWord, m.TimerPeriod = word, period
		m.Cycles, m.ProfilingCycles, m.Instrs, m.Calls = cycles, prof, instrs, calls
	}
	n.CBS.OnYieldpoint(m, kind)
}

// A hook may re-enter the VM. Whatever the nested run does to the
// VM's frame and stack storage, the interrupted run must go on exactly
// as if the hook had only sampled: same result, output, counters and
// DCG as the same profiler without the nested calls. An interpreter
// that keeps a *Frame or a stack slice across a hook fails here.
func TestHookMayReenterAndReallocate(t *testing.T) {
	b := bench.ByName("jess")
	src := b.Source + "\nint deep(int n) { if (n == 0) { return 0; } return deep(n - 1) + 1; }\n"
	run := func(nest bool) (*vm.VM, *nester, vm.Value) {
		prog, err := mj.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		n := &nester{CBS: profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Seed: 7})}
		if nest {
			n.deep = prog.MethodByName("$Globals.deep")
			if n.deep == nil {
				t.Fatal("no $Globals.deep in the extended program")
			}
		}
		m := vm.New(prog)
		m.SetProfiler(n)
		m.SetTimer(goldenTimer)
		v, err := m.Run(b.Small)
		if err != nil {
			t.Fatal(err)
		}
		if n.failed != nil {
			t.Fatal(n.failed)
		}
		return m, n, v
	}
	plain, pn, pv := run(false)
	nested, nn, nv := run(true)
	if nn.calls < 10 {
		t.Fatalf("only %d nested calls in %d yieldpoints", nn.calls, nn.events)
	}
	if pv != nv || !slices.Equal(plain.Output, nested.Output) {
		t.Errorf("result or output differs: %d vs %d, %d vs %d values printed", pv.I, nv.I, len(plain.Output), len(nested.Output))
	}
	if plain.Cycles != nested.Cycles || plain.ProfilingCycles != nested.ProfilingCycles ||
		plain.Instrs != nested.Instrs || plain.Calls != nested.Calls {
		t.Errorf("counters differ: cycles %d/%d, profiling %d/%d, instrs %d/%d, calls %d/%d",
			plain.Cycles, nested.Cycles, plain.ProfilingCycles, nested.ProfilingCycles,
			plain.Instrs, nested.Instrs, plain.Calls, nested.Calls)
	}
	if pn.SamplesTaken != nn.SamplesTaken || pn.events != nn.events {
		t.Errorf("sampling differs: %d/%d samples over %d/%d yieldpoints", pn.SamplesTaken, nn.SamplesTaken, pn.events, nn.events)
	}
	var pg, ng bytes.Buffer
	if _, err := pn.Graph.WriteTo(&pg); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.Graph.WriteTo(&ng); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pg.Bytes(), ng.Bytes()) {
		t.Error("DCG differs between the run with nested calls and the run without")
	}
}

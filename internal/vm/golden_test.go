package vm_test

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"gocbs/internal/adaptive"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/opt"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the pinned files under testdata from this interpreter")

const (
	goldenFile  = "testdata/observer_digests.txt"
	goldenTimer = 100_000 // a few hundred ticks per run at the small size
	goldenSteps = 1_000_000
)

// digest is a word-wise FNV-1a: cheap enough to run at every hook of a
// million-call program, and order-sensitive.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) add(ws ...uint64) {
	h := uint64(*d)
	for _, w := range ws {
		h = (h ^ w) * 1099511628211
		h ^= h >> 29
	}
	*d = digest(h)
}

func methodID(m *bytecode.Method) uint64 {
	if m == nil {
		return ^uint64(0)
	}
	return uint64(m.ID)
}

// observe folds everything a hook can see of the VM into d: the
// counters, the control word, the top of the stack through each public
// accessor, and both full stack walks.
func observe(d *digest, m *vm.VM, event ...uint64) {
	d.add(event...)
	d.add(m.Cycles, m.ProfilingCycles, m.Instrs, m.Calls, uint64(m.Depth()), uint64(int64(m.ControlWord)))
	d.add(methodID(m.TopMethod()))
	caller, site, callee, ok := m.TopCallEdge()
	if ok {
		d.add(1, methodID(caller), uint64(int64(site)), methodID(callee))
	} else {
		d.add(0)
	}
	m.WalkStack(func(meth *bytecode.Method, pc int) bool {
		d.add(methodID(meth), uint64(int64(pc)))
		return true
	})
	m.WalkCallers(func(meth *bytecode.Method, site int) bool {
		d.add(methodID(meth), uint64(int64(site)))
		return true
	})
}

// recorder implements all four listeners: it digests the VM state at
// every hook invocation, then forwards the event to the wrapped
// profilers that listen for it, in their order.
type recorder struct {
	d      digest
	events uint64
	parts  []vm.Profiler
}

var (
	_ vm.TickListener  = (*recorder)(nil)
	_ vm.YieldListener = (*recorder)(nil)
	_ vm.CallListener  = (*recorder)(nil)
	_ vm.EntryListener = (*recorder)(nil)
)

func newRecorder(parts ...vm.Profiler) *recorder {
	return &recorder{d: newDigest(), parts: parts}
}

// profilers is what goes on the VM: the recorder, and beside it the
// counting half of a wrapped profiler that has one and the tick-placing
// half of one that places, so that the wrapped run is the run. The VM
// then has a call listener and a counter, and every hook must still see
// the state it saw when the wrapped profiler did its counting in OnCall.
func (r *recorder) profilers() []vm.Profiler {
	on := []vm.Profiler{r}
	for _, p := range r.parts {
		if c, ok := p.(vm.CallCounter); ok {
			on = append(on, struct {
				vm.Profiler
				vm.CallCounter
			}{p, c})
		}
		if pl, ok := p.(vm.TickPlacer); ok {
			on = append(on, struct {
				vm.Profiler
				vm.TickPlacer
			}{p, pl})
		}
	}
	return on
}

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) OnTimerTick(m *vm.VM) {
	r.events++
	observe(&r.d, m, 1)
	for _, p := range r.parts {
		if t, ok := p.(vm.TickListener); ok {
			t.OnTimerTick(m)
		}
	}
}

func (r *recorder) OnYieldpoint(m *vm.VM, kind vm.YieldKind) {
	r.events++
	observe(&r.d, m, 2, uint64(kind))
	for _, p := range r.parts {
		if y, ok := p.(vm.YieldListener); ok {
			y.OnYieldpoint(m, kind)
		}
	}
}

func (r *recorder) OnCall(m *vm.VM, caller *bytecode.Method, site int, callee *bytecode.Method) {
	r.events++
	observe(&r.d, m, 3, methodID(caller), uint64(int64(site)), methodID(callee))
	for _, p := range r.parts {
		if c, ok := p.(vm.CallListener); ok {
			c.OnCall(m, caller, site, callee)
		}
	}
}

func (r *recorder) OnEntry(m *vm.VM, meth *bytecode.Method) {
	r.events++
	observe(&r.d, m, 4, methodID(meth))
	for _, p := range r.parts {
		if e, ok := p.(vm.EntryListener); ok {
			e.OnEntry(m, meth)
		}
	}
}

// observer is one way of watching a run: the profilers to install, the
// graph they build (nil if none), and the VM settings that go with it.
type observer struct {
	name  string
	timer uint64
	noEpi bool // J9: no epilogue yieldpoints
	make  func(prog *bytecode.Program) ([]vm.Profiler, *profile.DCG)
}

func cbsObserver(name string, fl profiler.Flavour) observer {
	return observer{name: name, timer: goldenTimer, noEpi: fl == profiler.FlavourJ9,
		make: func(*bytecode.Program) ([]vm.Profiler, *profile.DCG) {
			c := profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Flavour: fl, Seed: 7})
			return []vm.Profiler{c}, c.Graph
		}}
}

var goldenObservers = []observer{
	{name: "bare", make: func(*bytecode.Program) ([]vm.Profiler, *profile.DCG) { return nil, nil }},
	{name: "exhaustive", make: func(*bytecode.Program) ([]vm.Profiler, *profile.DCG) {
		e := profiler.NewExhaustive()
		return []vm.Profiler{e}, e.Graph
	}},
	cbsObserver("cbs-rvm", profiler.FlavourRVM),
	cbsObserver("cbs-j9", profiler.FlavourJ9),
	{name: "whaley", timer: goldenTimer, make: func(*bytecode.Program) ([]vm.Profiler, *profile.DCG) {
		w := profiler.NewWhaley()
		return []vm.Profiler{w}, w.Graph
	}},
	// The online controller recompiles off-stack methods from inside
	// OnTimerTick and charges compile cycles there: the one observer
	// that swaps code and moves the clock under the interpreter.
	{name: "adaptive", timer: goldenTimer, make: func(prog *bytecode.Program) ([]vm.Profiler, *profile.DCG) {
		c := profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Seed: 7})
		ctl := adaptive.NewController(prog, inline.NewNewLinear(), c.Graph, inline.DefaultOptions(), 2)
		return []vm.Profiler{c, ctl}, c.Graph
	}},
}

// goldenProgram compiles a fresh copy (the adaptive observer rewrites
// it), fused on request.
func goldenProgram(t *testing.T, name string, fused bool) (*bytecode.Program, int64) {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("no benchmark %q", name)
	}
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if fused {
		if _, err := opt.FuseProgram(prog); err != nil {
			t.Fatal(err)
		}
	}
	return prog, b.Small
}

// finish folds the end state of a run into d: result or trap text,
// counters, output stream and the canonical edge records of the
// collected DCG.
func finish(t *testing.T, d *digest, m *vm.VM, v vm.Value, err error, g *profile.DCG) {
	t.Helper()
	if err != nil {
		for _, c := range []byte(err.Error()) {
			d.add(uint64(c))
		}
	}
	d.add(uint64(v.I), m.Cycles, m.ProfilingCycles, m.Instrs, m.Calls, uint64(m.MethodsExecuted()), uint64(len(m.Output)))
	for _, o := range m.Output {
		d.add(uint64(o))
	}
	if g != nil {
		for _, c := range dcgBytes(g) {
			d.add(uint64(c))
		}
	}
}

// goldenRun executes one (program, observer, code shape) cell twice and
// returns its two lines. "hooks" wraps the profiler in the recorder, so
// all four listeners fire and the instruction prologue runs undisturbed;
// "trace" installs the profiler as is — only its own listeners are
// wired, so calls take whatever path the VM gives an unobserved call —
// and digests (method, pc, op, Cycles, Instrs) before every instruction.
func goldenRun(t *testing.T, name string, o observer, fused bool, maxSteps uint64) (hooks, trace string) {
	t.Helper()
	setup := func() (*vm.VM, []vm.Profiler, *profile.DCG, int64) {
		prog, size := goldenProgram(t, name, fused)
		m := vm.New(prog)
		m.MaxSteps = maxSteps
		m.EpilogueYieldpoints = !o.noEpi
		p, g := o.make(prog)
		return m, p, g, size
	}
	start := func(m *vm.VM, p []vm.Profiler, timer uint64) {
		m.SetProfiler(p...)
		if timer > 0 {
			m.SetTimer(timer)
		}
	}

	m, p, g, size := setup()
	rec := newRecorder(p...)
	start(m, rec.profilers(), o.timer)
	wantTrap := maxSteps == goldenSteps
	v, err := m.Run(size)
	if (err != nil) != wantTrap {
		t.Fatalf("hooks run: err = %v with MaxSteps %d", err, maxSteps)
	}
	finish(t, &rec.d, m, v, err, g)
	hooks = fmt.Sprintf("%016x events=%d cycles=%d instrs=%d", uint64(rec.d), rec.events, m.Cycles, m.Instrs)

	m, p, g, size = setup()
	start(m, p, o.timer)
	d := newDigest()
	var traced uint64
	m.Trace = func(meth *bytecode.Method, pc int, ins bytecode.Instr) {
		traced++
		d.add(methodID(meth), uint64(int64(pc)), uint64(ins.Op), m.Cycles, m.Instrs)
	}
	v, err = m.Run(size)
	if (err != nil) != wantTrap {
		t.Fatalf("trace run: err = %v with MaxSteps %d", err, maxSteps)
	}
	finish(t, &d, m, v, err, g)
	trace = fmt.Sprintf("%016x traced=%d cycles=%d instrs=%d", uint64(d), traced, m.Cycles, m.Instrs)
	if err != nil {
		trace += fmt.Sprintf(" err=%q", err)
	}
	return hooks, trace
}

// TestObserverDigestsPinned pins, across commits, everything a profiler
// or a trace hook can observe of the interpreter: the VM state at every
// single hook invocation and before every single instruction, over four
// programs × six observers × {plain, fused}, plus a step-limit trap.
// The file was written at the commit before the interpreter's state
// moved into locals (its graphs re-hashed over edge records when the wire
// header grew a field); an interpreter change that keeps behaviour leaves
// every line as it is. The adaptive observer runs on plain code only:
// fusion is a final pass, and the inliner does not rewrite
// superinstructions.
func TestObserverDigestsPinned(t *testing.T) {
	type cell struct {
		key   string
		name  string
		o     observer
		fused bool
		steps uint64
	}
	var cells []cell
	for _, name := range []string{"jess", "javac", "closures", "phases"} {
		for _, o := range goldenObservers {
			for _, fused := range []bool{false, true} {
				if fused && o.name == "adaptive" {
					continue
				}
				shape := "plain"
				if fused {
					shape = "fused"
				}
				cells = append(cells, cell{name + "/" + o.name + "/" + shape, name, o, fused, 4_000_000_000})
			}
		}
	}
	cells = append(cells, cell{"jess/cbs-rvm/plain/maxsteps", "jess", goldenObservers[2], false, goldenSteps})

	got := make([]string, 2*len(cells))
	t.Run("cells", func(t *testing.T) {
		for i, c := range cells {
			i, c := i, c
			t.Run(c.key, func(t *testing.T) {
				t.Parallel()
				hooks, trace := goldenRun(t, c.name, c.o, c.fused, c.steps)
				got[2*i] = c.key + "/hooks " + hooks
				got[2*i+1] = c.key + "/trace " + trace
			})
		}
	})
	if t.Failed() {
		return
	}
	sort.Strings(got)
	text := strings.Join(got, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update-golden at a commit whose interpreter is the reference)", err)
	}
	if text == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, line := range got {
		if i >= len(wantLines) || wantLines[i] != line {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("observer digest moved:\n got  %s\n want %s", line, w)
		}
	}
	if len(wantLines) > len(got) {
		t.Errorf("%d pinned lines have no run", len(wantLines)-len(got))
	}
}

package vm_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"gocbs/internal/adaptive"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/dcgstore"
	"gocbs/internal/inline"
	"gocbs/internal/mincover"
	"gocbs/internal/mj"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

const countedFile = "testdata/counted_graphs.txt"

// counting is one profiler whose whole work at a call is counting it:
// the graph it builds and how the run is closed (mincover's recovery).
type counting struct {
	name    string
	charged bool // a counted call costs Cost.InstrumentationCost
	make    func(prog *bytecode.Program) (vm.Profiler, *profile.DCG, func() error)
}

var countingProfilers = []counting{
	{"exhaustive", false, func(*bytecode.Program) (vm.Profiler, *profile.DCG, func() error) {
		e := profiler.NewExhaustive()
		return e, e.Graph, nil
	}},
	{"exhaustive-instrumented", true, func(*bytecode.Program) (vm.Profiler, *profile.DCG, func() error) {
		e := profiler.NewInstrumented()
		return e, e.Graph, nil
	}},
	{"mincover", true, func(prog *bytecode.Program) (vm.Profiler, *profile.DCG, func() error) {
		mc := mincover.New(prog)
		return mc, mc.Graph, mc.Finalize
	}},
}

// dcgBytes returns the graph's canonical edge records — caller, site,
// callee and the weight's bits, little-endian, edges in canonical order:
// what the graph holds, without the wire format's header, so that a pin
// of a run moves with the run and not with a header field it never set.
func dcgBytes(g *profile.DCG) []byte {
	var b []byte
	for _, e := range g.Edges() {
		for _, w := range []uint64{uint64(int64(e.Caller)), uint64(int64(e.Site)), uint64(int64(e.Callee)), math.Float64bits(g.Weight(e))} {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return b
}

// countedRun runs prog's entry under c with the given step limit and
// checks what holds of any counted run, cut or not: the graph is read as
// the harness reads it, straight after Run, and holds every call the VM
// counted (all of them for the exhaustive pair, trap included; the probed
// ones for mincover), each paid for once. It returns the VM, the graph's
// canonical bytes as they stood then, and the graph after the run was
// closed (for mincover on a completed run, the recovered one).
func countedRun(t *testing.T, key string, prog *bytecode.Program, size int64, c counting, maxSteps uint64) (*vm.VM, []byte, *profile.DCG) {
	t.Helper()
	m := vm.New(prog)
	m.MaxSteps = maxSteps
	p, g, finish := c.make(prog)
	m.SetProfiler(p)
	_, err := m.Run(size)
	if (err != nil) != (maxSteps > 0) {
		t.Fatalf("%s: err = %v with MaxSteps %d", key, err, maxSteps)
	}
	raw := dcgBytes(g)
	if finish == nil && g.Total() != float64(m.Calls) {
		t.Errorf("%s: graph holds %v calls, the VM made %d", key, g.Total(), m.Calls)
	}
	want := uint64(0)
	if c.charged {
		want = m.Cost.InstrumentationCost * uint64(g.Total())
	}
	if m.ProfilingCycles != want {
		t.Errorf("%s: %d profiling cycles for %v counted calls, want %d", key, m.ProfilingCycles, g.Total(), want)
	}
	if finish != nil && err == nil {
		if err := finish(); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	return m, raw, g
}

// TestCountedGraphIsComplete pins what the three counting profilers
// collect — the canonical DCG bytes and the VM's four counters — over the
// 15 suite programs, plain and trivially inlined, on a completed run and
// on one cut by the step limit half-way, and requires of every cell what
// countedRun checks and, of a completed mincover run, the exhaustive
// graph to the byte. The file was written while each of these profilers
// was a CallListener called at every call, and re-hashed over edge
// records (dcgBytes) when the wire header grew a field, no graph moving;
// however calls are counted, every line stays as it is.
func TestCountedGraphIsComplete(t *testing.T) {
	var got []string
	for _, bm := range bench.All() {
		size := spanSize(bm)
		for _, shape := range []string{"plain", "inlined"} {
			prog, err := bm.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if shape == "inlined" {
				if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
					t.Fatal(err)
				}
			}
			var exhaustive []byte
			for _, c := range countingProfilers {
				key := bm.Name + "/" + shape + "/" + c.name
				line := func(run string, m *vm.VM, dcg []byte) {
					sum := sha256.Sum256(dcg)
					got = append(got, fmt.Sprintf("%s/%s dcg=%x cycles=%d profiling=%d instrs=%d calls=%d",
						key, run, sum[:12], m.Cycles, m.ProfilingCycles, m.Instrs, m.Calls))
				}
				m, raw, g := countedRun(t, key+"/complete", prog, size, c, 0)
				line("complete", m, raw)
				switch c.name {
				case "exhaustive":
					exhaustive = raw
				case "mincover":
					if !bytes.Equal(dcgBytes(g), exhaustive) {
						t.Errorf("%s: the recovered graph is not the exhaustive one", key)
					}
				}
				cut, raw, _ := countedRun(t, key+"/cut", prog, size, c, m.Instrs/2)
				line("cut", cut, raw)
			}
		}
	}
	if t.Failed() {
		return
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(countedFile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countedFile)
	if err != nil {
		t.Fatalf("%v (run with -update-golden at a commit whose profilers are the reference)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%d cells, %d pinned lines", len(got), len(wantLines))
	}
	for i, line := range got {
		if wantLines[i] != line {
			t.Errorf("counted graph moved:\n got  %s\n want %s", line, wantLines[i])
		}
	}
}

// TestCountedGraphAcrossAttachAndCalls covers the two ways a counting
// profiler meets a VM that is not fresh: attached after a bare run, when
// the VM already holds a summary of every method made with nobody
// counting, and read between two harness calls on one VM, when the second
// call's counts must add to the first's.
func TestCountedGraphAcrossAttachAndCalls(t *testing.T) {
	bm := bench.ByName("javac")
	prog, err := bm.Compile()
	if err != nil {
		t.Fatal(err)
	}
	size := spanSize(bm)
	for _, c := range countingProfilers {
		fresh, _, want := countedRun(t, c.name+"/fresh", prog, size, c, 0)

		m := vm.New(prog)
		if _, err := m.Run(size); err != nil {
			t.Fatal(err)
		}
		calls, cycles := m.Calls, m.Cycles
		p, g, finish := c.make(prog)
		m.SetProfiler(p)
		if _, err := m.Run(size); err != nil {
			t.Fatal(err)
		}
		if finish != nil {
			if err := finish(); err != nil {
				t.Fatalf("%s: attached late: %v", c.name, err)
			}
		}
		if m.Calls-calls != fresh.Calls || m.Cycles-cycles != fresh.Cycles || m.ProfilingCycles != fresh.ProfilingCycles {
			t.Errorf("%s: attached late: %d calls, %d cycles, %d profiling; a fresh VM counts %d, %d, %d", c.name,
				m.Calls-calls, m.Cycles-cycles, m.ProfilingCycles, fresh.Calls, fresh.Cycles, fresh.ProfilingCycles)
		}
		if !bytes.Equal(dcgBytes(g), dcgBytes(want)) {
			t.Errorf("%s: attached after a bare run, the graph is not the one a fresh VM collects", c.name)
		}
	}

	for _, c := range countingProfilers[:2] {
		m := vm.New(prog)
		p, g, _ := c.make(prog)
		m.SetProfiler(p)
		iter, err := bench.Setup(m, size)
		if err != nil {
			t.Fatal(err)
		}
		var totals []float64
		for i := 0; i < 2; i++ {
			if _, err := m.Call(iter); err != nil {
				t.Fatal(err)
			}
			if g.Total() != float64(m.Calls) {
				t.Errorf("%s: after iteration %d the graph holds %v calls, the VM made %d", c.name, i, g.Total(), m.Calls)
			}
			totals = append(totals, g.Total())
		}
		if totals[1] <= totals[0] {
			t.Errorf("%s: the second iteration left the graph at %v calls, from %v", c.name, totals[1], totals[0])
		}
	}
}

// adversary compiles one mjgen program of the given shape with a driver
// appended that runs its main n times inside one harness call: a few
// hundred calls a run are too few to bound a share on.
func adversary(t *testing.T, shape string) *bytecode.Program {
	t.Helper()
	src := mj.GenerateShaped(1, 4, shape) + `
int drive(int n) {
	int acc = 0;
	for (int di = 0; di < n; di = di + 1) { acc = acc ^ main(di + 1); }
	return acc;
}
`
	prog, err := mj.Compile(src)
	if err != nil {
		t.Fatalf("%s: %v", shape, err)
	}
	return prog
}

// TestCountedCallsStayInRegisters is the deterministic stand-in for a
// wall-clock gate on counted calls: over the eight call-dense programs of
// the repo benchmark's vm_profiled workload, trivially inlined as there,
// with no timer, and over a megamorphic and a deep-hierarchy program from
// mjgen, it bounds how many calls leave run's registers for enter. Under
// the instrumented exhaustive profiler and under mincover, on a fresh VM,
// at most 1 % of the counted calls do — the first of each (point, callee)
// pair, whatever the number of a point's targets; and in a second run on
// the same VM, with every method entered and the stack grown, no call at
// a point mincover does not probe does. -v prints the table, with the
// size of the counters the VM made.
func TestCountedCallsStayInRegisters(t *testing.T) {
	type subject struct {
		name  string
		prog  *bytecode.Program
		entry string
		arg   int64
	}
	var subjects []subject
	for _, name := range []string{"javac", "kawa", "phases", "ipsixql", "jess", "jack", "closures", "jbb"} {
		bm := bench.ByName(name)
		prog, err := bm.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{name, prog, prog.Entry.Name, bm.Small})
	}
	for _, shape := range []string{mj.ShapeMegamorphic, mj.ShapeDeepVirt} {
		subjects = append(subjects, subject{"mjgen-" + shape, adversary(t, shape), "$Globals.drive", 200})
	}
	t.Logf("%-18s %-24s %9s %9s %7s %7s %9s %9s", "program", "profiler", "calls", "counted", "slow", "share%", "uncounted", "row bytes")
	for _, s := range subjects {
		for _, c := range countingProfilers[1:] {
			m := vm.New(s.prog)
			p, g, _ := c.make(s.prog)
			m.SetProfiler(p)
			entry := s.prog.MethodByName(s.entry)
			if _, err := m.Call(entry, vm.IntV(s.arg)); err != nil {
				t.Fatalf("%s/%s: %v", s.name, c.name, err)
			}
			counted := uint64(g.Total())
			slow, slowCounted := m.SlowCalls()
			share := 100 * float64(slowCounted) / float64(counted)
			if share > 1 {
				t.Errorf("%s/%s: %d of %d counted calls took enter (%.2f %%), want at most 1 %%", s.name, c.name, slowCounted, counted, share)
			}
			if _, err := m.Call(entry, vm.IntV(s.arg)); err != nil {
				t.Fatalf("%s/%s: second run: %v", s.name, c.name, err)
			}
			slow2, slowCounted2 := m.SlowCalls()
			uncounted := (slow2 - slow) - (slowCounted2 - slowCounted)
			if uncounted != 0 {
				t.Errorf("%s/%s: %d calls nobody counts took enter in a second run", s.name, c.name, uncounted)
			}
			t.Logf("%-18s %-24s %9d %9d %7d %7.3f %9d %9d", s.name, c.name, m.Calls/2, counted, slowCounted, share, uncounted, m.CounterRowBytes())
		}
	}
}

// graphReader is a tick listener that holds a counting profiler's graph
// to the VM's call counter: what a pusher would read at a tick.
type graphReader struct {
	t     *testing.T
	graph *profile.DCG
	ticks int
}

func (r *graphReader) Name() string { return "graph-reader" }

func (r *graphReader) OnTimerTick(m *vm.VM) {
	r.ticks++
	if r.graph.Total() != float64(m.Calls) {
		r.t.Errorf("tick %d: the graph holds %v calls of %d", r.ticks, r.graph.Total(), m.Calls)
	}
}

// TestSetProfilerWiresOnlyWhatPartsImplement holds a VM with several
// profilers to what it pays for them: parts that watch no call leave calls
// in run's registers (a sampler with a pusher or with the adaptive
// controller, the two combinations outside tests), a call listener among
// them does not, a CallCounter among them counts and is folded before the
// other parts' tick, and two of them are refused.
func TestSetProfilerWiresOnlyWhatPartsImplement(t *testing.T) {
	prog, _ := goldenProgram(t, "javac", false)
	cbs := profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Seed: 7})
	for name, parts := range map[string][]vm.Profiler{
		"cbs+pusher":     {cbs, dcgstore.NewTickPusher(dcgstore.NewClient("http://127.0.0.1:0"), "", cbs.Graph, 0)},
		"cbs+controller": {cbs, adaptive.NewController(prog, inline.NewNewLinear(), cbs.Graph, inline.DefaultOptions(), 2)},
		"cbs+counter":    {cbs, profiler.NewInstrumented()},
	} {
		m := vm.New(prog)
		m.SetProfiler(parts...)
		m.SetTimer(goldenTimer)
		if !m.QuietCall() {
			t.Errorf("%s: calls leave run's registers with the control word at zero", name)
		}
	}
	m := vm.New(prog)
	m.SetProfiler(cbs, &callListener{})
	if m.QuietCall() {
		t.Error("cbs+listener: calls stay in run's registers past a call listener")
	}

	e := profiler.NewInstrumented()
	reader := &graphReader{t: t, graph: e.Graph}
	m = vm.New(prog)
	m.SetProfiler(e, reader)
	m.SetTimer(goldenTimer)
	if _, err := m.Run(spanSize(bench.ByName("javac"))); err != nil {
		t.Fatal(err)
	}
	if reader.ticks == 0 || e.Graph.Total() != float64(m.Calls) || m.ProfilingCycles != m.Cost.InstrumentationCost*m.Calls {
		t.Errorf("counter+reader: %d ticks, graph %v of %d calls, %d profiling cycles", reader.ticks, e.Graph.Total(), m.Calls, m.ProfilingCycles)
	}

	defer func() {
		if recover() == nil {
			t.Error("SetProfiler took two CallCounters")
		}
	}()
	m.SetProfiler(profiler.NewExhaustive(), mincover.New(prog))
}

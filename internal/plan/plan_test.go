package plan_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/puller"
	"gocbs/internal/vm"
)

// jitProgram compiles a benchmark in the JIT-only configuration the
// whole pipeline assumes (trivial inlines applied, every other call
// observable and therefore plannable).
func jitProgram(t testing.TB, name string) *bytecode.Program {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("benchmark %q not found", name)
	}
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return prog
}

// exhaustiveGraph collects the ground-truth DCG of setup(size) plus
// iters iterations.
func exhaustiveGraph(t *testing.T, prog *bytecode.Program, size int64, iters int) *profile.DCG {
	t.Helper()
	e := profiler.NewExhaustive()
	m := vm.New(prog)
	m.SetProfiler(e)
	iter, err := bench.Setup(m, size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		if _, err := m.Call(iter); err != nil {
			t.Fatal(err)
		}
	}
	return e.Graph
}

// runChecksums executes setup+iters on a fresh VM and returns the
// per-iteration checksums and total cycles.
func runChecksums(t *testing.T, prog *bytecode.Program, size int64, iters int) ([]int64, uint64) {
	t.Helper()
	sums, cycles, err := puller.RunRound(prog, size, iters)
	if err != nil {
		t.Fatal(err)
	}
	return sums, cycles
}

func compilePlan(t *testing.T, program string, pristine *bytecode.Program, g *profile.DCG, prior *plan.Plan) *plan.Plan {
	t.Helper()
	p, err := plan.Compile(program, pristine, g, plan.DefaultParams(), prior)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWireRoundTrip(t *testing.T) {
	p := &plan.Plan{
		Program: "compress",
		Policy:  "new-linear",
		Epoch:   7,
		Decisions: []plan.Decision{
			{Site: 3, Callee: 12, Kind: plan.KindStatic},
			{Site: 9, Callee: 4, Kind: plan.KindGuarded},
			{Site: 40, Callee: 31, Kind: plan.KindNullGuard},
		},
	}
	p.Hash = p.ContentHash()

	enc := p.Encode()
	got, err := plan.ReadPlan(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(p) || got.Epoch != p.Epoch || got.Hash != p.Hash {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
	}
	// Canonical: re-encoding reproduces the same bytes.
	if !bytes.Equal(got.Encode(), enc) {
		t.Error("re-encoding is not byte-identical")
	}

	// An empty decision list is a valid plan.
	empty := &plan.Plan{Program: "p", Policy: "new-linear", Epoch: 1}
	empty.Hash = empty.ContentHash()
	if _, err := plan.ReadPlan(bytes.NewReader(empty.Encode())); err != nil {
		t.Fatalf("empty plan rejected: %v", err)
	}
}

// wireV1 lays p out in plan wire version 1, which had no program-version
// field: nothing reads it any more, and the tests that say so need the
// bytes.
func wireV1(p *plan.Plan) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte("PLNB"), 1)
	for _, name := range []string{p.Program, p.Policy} {
		b = append(le.AppendUint16(b, uint16(len(name))), name...)
	}
	b = le.AppendUint64(b, p.Epoch)
	b = le.AppendUint64(b, p.Hash)
	b = le.AppendUint32(b, uint32(len(p.Decisions)))
	for _, d := range p.Decisions {
		b = le.AppendUint64(b, uint64(int64(d.Site)))
		b = le.AppendUint64(b, uint64(int64(d.Callee)))
		b = append(b, uint8(d.Kind))
	}
	return b
}

func TestReadPlanRejectsMalformed(t *testing.T) {
	base := &plan.Plan{
		Program:   "compress",
		Policy:    "new-linear",
		Epoch:     2,
		Decisions: []plan.Decision{{Site: 3, Callee: 12}, {Site: 9, Callee: 4, Kind: plan.KindGuarded}},
	}
	base.Hash = base.ContentHash()
	good := base.Encode()

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"bad magic", []byte("DCGB\x01\x00\x00\x00"), "bad plan magic"},
		{"profile payload", []byte("dcg v1\nedge 1 2 3 4\n"), "bad plan magic"},
		{"version 0", append(append([]byte{}, "PLNB"...), 0, 0, 0, 0), "version 0 not supported"},
		{"wire v1", wireV1(base), "plan wire version 1 not supported"},
		{"future version", append(append([]byte{}, "PLNB"...), 99, 0, 0, 0), "version 99 not supported"},
		{"truncated", good[:len(good)-5], "truncated"},
		{"trailing data", append(append([]byte{}, good...), 0xAB), "trailing data"},
	}
	// Corrupt one decision byte: content no longer matches the header
	// hash.
	tampered := append([]byte{}, good...)
	tampered[len(tampered)-2] ^= 0xFF
	cases = append(cases, struct {
		name string
		data []byte
		want string
	}{"hash mismatch", tampered, ""})

	for _, tc := range cases {
		_, err := plan.ReadPlan(bytes.NewReader(tc.data))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCompileApplyEndToEnd: a plan compiled from an exhaustive profile
// applies to a fresh clone, actually inlines, preserves the program's
// output exactly, and does not slow it down.
func TestCompileApplyEndToEnd(t *testing.T) {
	pristine := jitProgram(t, "compress")
	b := bench.ByName("compress")
	g := exhaustiveGraph(t, pristine.Clone(), b.Small, 3)

	p := compilePlan(t, "compress", pristine, g, nil)
	if len(p.Decisions) == 0 {
		t.Fatal("plan from an exhaustive profile is empty")
	}
	if p.Epoch != 1 {
		t.Errorf("first plan epoch = %d, want 1", p.Epoch)
	}

	const iters = 3
	wantSums, baseCycles := runChecksums(t, pristine.Clone(), b.Small, iters)

	optimized := pristine.Clone()
	rep, err := plan.Apply(optimized, p, inline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.InlinesApplied == 0 {
		t.Fatal("plan.Apply inlined nothing")
	}
	gotSums, optCycles := runChecksums(t, optimized, b.Small, iters)
	for i := range wantSums {
		if gotSums[i] != wantSums[i] {
			t.Fatalf("iter %d checksum: optimized %d != baseline %d", i, gotSums[i], wantSums[i])
		}
	}
	if optCycles >= baseCycles {
		t.Errorf("plan-optimized run not faster: %d >= %d cycles", optCycles, baseCycles)
	}
	t.Logf("plan: %d decisions, %d inlines applied, cycles %d -> %d (%.1f%% faster)",
		len(p.Decisions), rep.InlinesApplied, baseCycles, optCycles,
		(float64(baseCycles)/float64(optCycles)-1)*100)
}

func TestValidProgramName(t *testing.T) {
	for _, ok := range []string{"compress", "mtrt", "a.b-c_9", "X"} {
		if !plan.ValidProgramName(ok) {
			t.Errorf("ValidProgramName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a/b", "../etc", "a b", strings.Repeat("x", 65)} {
		if plan.ValidProgramName(bad) {
			t.Errorf("ValidProgramName(%q) = true", bad)
		}
	}
}

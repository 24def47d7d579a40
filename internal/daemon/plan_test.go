package daemon

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/dcgstore"
	"gocbs/internal/inline"
	"gocbs/internal/plan"
	"gocbs/internal/profiler"
	"gocbs/internal/puller"
	"gocbs/internal/runner"
	"gocbs/internal/vm"
)

// jitClone compiles a benchmark the way every VM in the fleet does
// (JIT-only: trivial inlines, nothing profile-driven), so the global
// call-site IDs match the ones the daemon plans against.
func jitClone(t *testing.T, b *bench.Benchmark) *bytecode.Program {
	t.Helper()
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return prog
}

// steadyCycles runs setup(size) then iters iterations on a fresh VM and
// returns the per-iteration checksums plus the cycles spent iterating.
func steadyCycles(t *testing.T, prog *bytecode.Program, size int64, iters int) ([]int64, uint64) {
	t.Helper()
	sums, cycles, err := puller.RunRound(prog, size, iters)
	if err != nil {
		t.Fatal(err)
	}
	return sums, cycles
}

// TestPlanEndToEnd is the acceptance test for the fleet PGO loop: K
// VMs profile compress under CBS and push delta snapshots to a live
// daemon; a puller fetches the plan the daemon compiled from the
// merged graph, applies it to its own JIT-only clone, and the planned
// clone runs the benchmark byte-identically and measurably faster
// than the unoptimized baseline — and in the same league as a VM that
// inlined from its own local exhaustive profile (the best any single
// VM could do without the fleet).
func TestPlanEndToEnd(t *testing.T) {
	const K = 4
	ts, _ := newTestDaemon(t)
	b := bench.ByName("compress")
	if b == nil {
		t.Fatal("compress benchmark missing")
	}

	// K pusher VMs: CBS with distinct seeds, periodic pushes plus a
	// final flush, exactly the cbsvm -push pipeline.
	if _, err := runner.Map(runner.New(K), make([]int, K), func(k int, _ int) (struct{}, error) {
		prog, err := b.Compile()
		if err != nil {
			return struct{}{}, err
		}
		if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
			return struct{}{}, err
		}
		c := profiler.NewCBS(profiler.Config{
			Stride: 3, SamplesPerTick: 16,
			Flavour: profiler.FlavourRVM, Seed: int64(100 + k),
		})
		push := dcgstore.NewTickPusher(dcgstore.NewClient(ts.URL), "", c.Graph, 40)
		m := vm.New(prog)
		m.SetProfiler(c, push)
		m.SetTimer(50_000)
		if _, err := m.Run(b.SizeFor("small")); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, push.Flush()
	}); err != nil {
		t.Fatal(err)
	}

	// The puller VM fetches the plan the daemon compiled from the
	// merged fleet graph.
	client := plan.NewClient(ts.URL)
	p, changed, err := client.FetchVersion("compress", "")
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("first fetch reported changed=false")
	}
	if p.Epoch != 1 || len(p.Decisions) == 0 {
		t.Fatalf("fleet plan: epoch %d, %d decisions; want epoch 1 and a non-empty plan", p.Epoch, len(p.Decisions))
	}

	// A second conditional fetch is answered 304 from cache: same plan
	// object semantics, changed=false, and the daemon counts it.
	p2, changed, err := client.FetchVersion("compress", "")
	if err != nil {
		t.Fatal(err)
	}
	if changed || !bytes.Equal(p2.Encode(), p.Encode()) {
		t.Error("conditional re-fetch did not return the identical cached plan")
	}
	m := fetchMetrics(t, ts.URL)
	if m.Plan.NotModified < 1 {
		t.Errorf("plan.not_modified = %v, want >= 1", m.Plan.NotModified)
	}
	if m.Plan.Computed < 1 {
		t.Errorf("plan.computed = %v, want >= 1", m.Plan.Computed)
	}

	// Steady state: baseline JIT-only clone vs the plan-guided clone.
	const iters = 3
	size := b.SizeFor("small")
	baseline := jitClone(t, b)
	wantSums, baseCycles := steadyCycles(t, baseline, size, iters)

	planned := jitClone(t, b)
	rep, err := plan.Apply(planned, p, inline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.InlinesApplied == 0 {
		t.Fatal("fleet plan applied zero inlines")
	}
	gotSums, planCycles := steadyCycles(t, planned, size, iters)
	for i := range wantSums {
		if gotSums[i] != wantSums[i] {
			t.Fatalf("iter %d: planned checksum %d != baseline %d", i, gotSums[i], wantSums[i])
		}
	}
	if planCycles >= baseCycles {
		t.Errorf("plan-guided run not faster than baseline: %d >= %d cycles", planCycles, baseCycles)
	}

	// And it should be within noise of a VM that inlined from its own
	// exhaustive local profile — the fleet loses nothing important by
	// planning centrally from sampled profiles.
	local := jitClone(t, b)
	ex := profiler.NewExhaustive()
	{
		mm := vm.New(local.Clone())
		mm.SetProfiler(ex)
		if _, err := mm.Run(size); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inline.Optimize(local, inline.NewNewLinear(), ex.Graph, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	_, localCycles := steadyCycles(t, local, size, iters)
	if float64(planCycles) > float64(localCycles)*1.10 {
		t.Errorf("plan-guided run %d cycles is >10%% behind the local-exhaustive inliner's %d", planCycles, localCycles)
	}
	t.Logf("steady-state cycles/run: baseline %d, plan-guided %d (%.1f%% faster), local-exhaustive %d",
		baseCycles, planCycles, (float64(baseCycles)/float64(planCycles)-1)*100, localCycles)
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPlanEndpointErrors: the endpoint distinguishes caller mistakes
// (400), unknown programs (404), and counts both.
func TestPlanEndpointErrors(t *testing.T) {
	ts, _ := newTestDaemon(t)
	resp := mustGet(t, ts.URL+api.PathPlan)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing ?program=: status %d, want 400", resp.StatusCode)
	}
	for _, q := range []string{"no-such-benchmark", "..%2Fescape"} {
		resp := mustGet(t, ts.URL+api.PathPlan+"?program="+q)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("program=%s: status %d, want 404", q, resp.StatusCode)
		}
	}
	if n := fetchMetrics(t, ts.URL).Plan.RequestErrors; n != 3 {
		t.Errorf("plan.request_errors = %v, want 3", n)
	}
	if resp, _ := http.Post(ts.URL+api.PathPlan+"?program=compress", "", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /plan: status %d, want 405", resp.StatusCode)
	}
}

// TestPlanSurvivesDaemonRestart: the byte-identity acceptance check.
// A daemon that compiled a plan, checkpointed, and restarted over the
// same state dir must serve the byte-identical plan — same epoch, same
// hash, same bytes — because both the graph (store checkpoint) and the
// prior plan (plan-<program>.plnb) were restored.
func TestPlanSurvivesDaemonRestart(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")

	ctx1, cancel1 := context.WithCancel(context.Background())
	url1, done1 := startDaemon(t, ctx1, stateDir)

	// One deterministic push so both incarnations aggregate the same
	// graph.
	prog := jitClone(t, bench.ByName("compress"))
	ex := profiler.NewExhaustive()
	m := vm.New(prog)
	m.SetProfiler(ex)
	if _, err := m.Run(bench.ByName("compress").SizeFor("small")); err != nil {
		t.Fatal(err)
	}
	if err := dcgstore.NewClient(url1).PushDelta("vm-planner", 1, ex.Graph); err != nil {
		t.Fatal(err)
	}

	before := fetchPlanBytes(t, url1)
	if _, err := os.Stat(filepath.Join(stateDir, "plan-compress@"+prog.Version()+".plnb")); err != nil {
		t.Fatalf("plan file not persisted alongside checkpoints: %v", err)
	}

	cancel1()
	if err := <-done1; err != nil {
		t.Fatalf("first daemon shutdown: %v", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	url2, done2 := startDaemon(t, ctx2, stateDir)
	after := fetchPlanBytes(t, url2)
	if !bytes.Equal(before, after) {
		t.Errorf("restarted daemon serves a different plan: %d vs %d bytes", len(after), len(before))
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatalf("second daemon shutdown: %v", err)
	}
}

func fetchPlanBytes(t *testing.T, baseURL string) []byte {
	t.Helper()
	resp := mustGet(t, baseURL+api.PathPlan+"?program=compress")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /plan: %s: %s", resp.Status, body)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.ReadPlan(bytes.NewReader(b)); err != nil {
		t.Fatalf("served plan does not decode: %v", err)
	}
	return b
}

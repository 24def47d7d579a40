package puller

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

func jitBench(t *testing.T, name string) (*bench.Benchmark, *bytecode.Program) {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("benchmark %q missing", name)
	}
	prog, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return b, prog
}

func exhaustiveSetupIter(t *testing.T, prog *bytecode.Program, size int64, iters int) *profile.DCG {
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

// planServer serves one fixed plan at /plan?program= with the same
// ETag semantics as cbsd, counting requests and 304s.
func planServer(t *testing.T, p *plan.Plan) (*httptest.Server, *atomic.Uint64, *atomic.Uint64) {
	t.Helper()
	var requests, notModified atomic.Uint64
	etag := "\"plan-" + strconv.FormatUint(p.Epoch, 10) + "-" + strconv.FormatUint(p.Hash, 16) + "\""
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != api.PathPlan {
			http.NotFound(w, r)
			return
		}
		requests.Add(1)
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			notModified.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Write(p.Encode())
	}))
	t.Cleanup(ts.Close)
	return ts, &requests, &notModified
}

// TestPullLoopAppliesFleetPlan: the puller fetches a plan, verifies
// it, hot-swaps it in, keeps running correctly, and ends up faster —
// while later polls are answered 304 from the client's ETag cache.
func TestPullLoopAppliesFleetPlan(t *testing.T) {
	b, pristine := jitBench(t, "compress")
	g := exhaustiveSetupIter(t, pristine.Clone(), b.Small, 3)
	p, err := plan.Compile("compress", pristine, g, plan.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Decisions) == 0 {
		t.Fatal("compress plan is empty")
	}
	ts, requests, notModified := planServer(t, p)

	st, err := Run(pristine, Options{
		Client: plan.NewClient(ts.URL), Program: "compress", Size: b.Small,
		Rounds: 4, Every: 2, Iters: 2,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Killed {
		t.Error("kill switch fired on a correct plan")
	}
	if st.Swaps != 1 || st.Epoch != p.Epoch {
		t.Errorf("swaps %d epoch %d, want 1 swap of epoch %d", st.Swaps, st.Epoch, p.Epoch)
	}
	if st.Rounds != 4 || st.Polls != 2 {
		t.Errorf("rounds %d polls %d, want 4 rounds, 2 polls", st.Rounds, st.Polls)
	}
	if st.LastCycles >= st.BaseCycles {
		t.Errorf("plan-guided round not faster: %d >= %d cycles", st.LastCycles, st.BaseCycles)
	}
	if requests.Load() != 2 || notModified.Load() != 1 {
		t.Errorf("server saw %d requests / %d 304s, want 2 / 1 (second poll conditional)", requests.Load(), notModified.Load())
	}
}

// findDivergingDecision scans a benchmark's polymorphic call sites for
// a null-guard inline of a minority receiver — the paper's
// monomorphic-in-practice transform pointed at the *wrong* target,
// which executes the wrong callee body whenever the majority receiver
// shows up. It returns a single-decision plan proven (by direct
// application) to change the benchmark's output.
func findDivergingDecision(t *testing.T, program string, prog *bytecode.Program, g *profile.DCG, size int64, iters int) *plan.Plan {
	t.Helper()
	ref, _, err := RunRound(prog.Clone(), size, iters)
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range g.Sites() {
		dist := g.SiteDistribution(site)
		if len(dist) < 2 {
			continue
		}
		// Try every minority target; most are harmless (same behavior),
		// the test needs one that is not.
		for _, tw := range dist[1:] {
			p := &plan.Plan{
				Program: program, Version: prog.Version(), Policy: "new-linear", Epoch: 99,
				Decisions: []plan.Decision{{Site: site, Callee: tw.Callee, Kind: plan.KindNullGuard}},
			}
			p.Hash = p.ContentHash()
			victim := prog.Clone()
			rep, err := plan.Apply(victim, p, inline.DefaultOptions())
			if err != nil || rep.InlinesApplied == 0 {
				continue
			}
			sums, _, err := RunRound(victim, size, iters)
			if err != nil || !slices.Equal(sums, ref) {
				t.Logf("diverging vector: site %d null-guard-inlines minority callee %d (%.1f%% of receivers)",
					site, tw.Callee, tw.Percent)
				return p
			}
		}
	}
	return nil
}

// TestPullLoopKillSwitch: a daemon serving a plan that changes program
// output must not be able to corrupt the puller. The verify round
// catches the divergence, the VM reverts to the unoptimized clone,
// pulling is disabled, and the run completes with correct output at
// baseline speed.
func TestPullLoopKillSwitch(t *testing.T) {
	// mtrt has polymorphic dispatch sites whose targets behave
	// differently, so a wrong-target null-guard inline observably
	// corrupts the checksum — the exact failure the switch exists for.
	b, pristine := jitBench(t, "mtrt")
	g := exhaustiveSetupIter(t, pristine.Clone(), b.Small, 2)
	bad := findDivergingDecision(t, "mtrt", pristine, g, b.Small, 2)
	if bad == nil {
		t.Fatal("no output-diverging inline vector found in mtrt; the kill switch test lost its test vector")
	}
	ts, _, _ := planServer(t, bad)

	st, err := Run(pristine, Options{
		Client: plan.NewClient(ts.URL), Program: "mtrt", Size: b.Small,
		Rounds: 3, Every: 1, Iters: 2,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Killed {
		t.Fatal("kill switch did not fire on a diverging plan")
	}
	if st.Swaps != 0 || st.Epoch != 0 {
		t.Errorf("diverging plan was swapped in: %d swaps, epoch %d", st.Swaps, st.Epoch)
	}
	if st.Rounds != 3 {
		t.Errorf("rounds %d, want 3 (workload must finish after the kill)", st.Rounds)
	}
	// Once killed, no further polls happen.
	if st.Polls != 1 {
		t.Errorf("polls %d, want 1 (pulling disabled after the kill)", st.Polls)
	}
}

// TestPullLoopSurvivesDeadDaemon: an unreachable daemon degrades the
// puller to baseline execution, never an error.
func TestPullLoopSurvivesDeadDaemon(t *testing.T) {
	b, pristine := jitBench(t, "compress")
	st, err := Run(pristine, Options{
		Client: plan.NewClient("http://127.0.0.1:1"), Program: "compress", Size: b.Small,
		Rounds: 2, Every: 1, Iters: 1,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 2 || st.Swaps != 0 || st.Killed {
		t.Errorf("dead daemon: %+v", st)
	}
}

// TestPullLoopRefusesWrongVersionPlan is the negative version test: a
// daemon (or a cache in front of one) keeps serving a plan compiled
// for a different build of the program. The puller must refuse every
// such plan whole — zero swaps, zero applied epochs — count the
// refusals, and keep the workload running unoptimized.
func TestPullLoopRefusesWrongVersionPlan(t *testing.T) {
	b, pristine := jitBench(t, "compress")
	g := exhaustiveSetupIter(t, pristine.Clone(), b.Small, 3)
	p, err := plan.Compile("compress", pristine, g, plan.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != pristine.Version() {
		t.Fatalf("compiled plan stamped %q, want %q", p.Version, pristine.Version())
	}
	ts, requests, _ := planServer(t, p)

	// This VM runs an upgraded build: one extra unused constant, same
	// behaviour, different content-addressed version. The served plan's
	// decisions would even apply cleanly — which is exactly why the
	// refusal must be identity-based, not best-effort.
	upgraded := pristine.Clone()
	m := upgraded.MethodByName("$Globals.setup")
	m.Consts = append(m.Consts, 0x5F55504752414445)
	if upgraded.Version() == pristine.Version() {
		t.Fatal("upgrade did not change the version")
	}

	st, err := Run(upgraded, Options{
		Client: plan.NewClient(ts.URL), Program: "compress", Size: b.Small,
		Rounds: 4, Every: 1, Iters: 1,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Swaps != 0 || st.Epoch != 0 {
		t.Errorf("puller APPLIED a wrong-version plan: %d swaps, epoch %d", st.Swaps, st.Epoch)
	}
	if st.VersionRejects != st.Polls || st.Polls == 0 {
		t.Errorf("VersionRejects = %d over %d polls, want every poll refused", st.VersionRejects, st.Polls)
	}
	if st.Killed {
		t.Error("kill switch fired — refused plans must never reach execution")
	}
	if st.Rounds != 4 {
		t.Errorf("workload ran %d rounds, want 4 (refusals must not stop the VM)", st.Rounds)
	}
	if requests.Load() == 0 {
		t.Error("puller never reached the server")
	}
}

package plan_test

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/dcgstore"
	"gocbs/internal/inline"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/puller"
	"gocbs/internal/vm"
)

var benchPrograms = []string{"compress", "jess", "javac"}

// benchService is a plan.Service over a real store holding the
// exhaustive graph of one small run of name, its first plan compiled.
func benchService(tb testing.TB, name string) (*plan.Service, *dcgstore.Store, *profile.DCG) {
	tb.Helper()
	b := bench.ByName(name)
	pristine, err := jitProgramErr(b)
	if err != nil {
		tb.Fatal(err)
	}
	ex := profiler.NewExhaustive()
	m := vm.New(pristine.Clone())
	m.SetProfiler(ex)
	if _, err := m.Run(b.Small); err != nil {
		tb.Fatal(err)
	}
	store := dcgstore.New()
	store.MergeDCG(ex.Graph)
	svc := plan.NewService(plan.ServiceConfig{
		Source:         func(_, _ string) *profile.DCG { return store.Snapshot() },
		Version:        func(_, _ string) (uint64, uint64) { return store.Version() },
		CompileProgram: func(_, _ string) (*bytecode.Program, error) { return pristine, nil },
		Params:         plan.DefaultParams(),
	})
	if _, err := svc.PlanForVersion(name, ""); err != nil {
		tb.Fatal(err)
	}
	return svc, store, ex.Graph
}

// BenchmarkServicePull times one plan pull that follows a push, the
// testing.B twin of the repo benchmark's daemon.plan_304_us_p50 (the
// handler's share of it) and, on the moved side, plan.compile_ms_p50.
// unchanged: the push moved the store's counters and nothing the policy
// sees (an empty delta), so the pull snapshots, finds the conditioned
// graph where the cached plan left it, and compiles nothing. moved: the
// push doubled every weight or a decay halved it, three grid points
// either way, so the pull conditions and compiles. The push is inside
// the timed loop on both sides (a counter bump; a merge or a decay of
// the whole graph, about a hundredth of the compile it provokes).
func BenchmarkServicePull(b *testing.B) {
	for _, name := range benchPrograms {
		b.Run("unchanged/"+name, func(b *testing.B) {
			svc, store, _ := benchService(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store.MergeDCG(nil)
				if _, err := svc.PlanForVersion(name, ""); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := svc.Stats(); st.Skipped != uint64(b.N) {
				b.Fatalf("%d of %d pulls skipped", st.Skipped, b.N)
			}
		})
		b.Run("moved/"+name, func(b *testing.B) {
			svc, store, graph := benchService(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					store.MergeDCG(graph)
				} else {
					store.Decay(0.5, 0)
				}
				if _, err := svc.PlanForVersion(name, ""); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := svc.Stats(); st.Skipped != 0 {
				b.Fatalf("%d of %d pulls skipped", st.Skipped, b.N)
			}
		})
	}
}

// BenchmarkCondition times the stability layer alone on the same
// graphs: the part of plan.compile_ms_p50 a miss pays before the
// inliner runs.
func BenchmarkCondition(b *testing.B) {
	for _, name := range benchPrograms {
		_, _, graph := benchService(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if plan.Condition(graph, plan.Floor, plan.Band).NumEdges() == 0 {
					b.Fatal("conditioned graph is empty")
				}
			}
		})
	}
}

// javacMerged is javac's merged CBS graph after 2 × 12 pushes and the
// plan the prior chain served eight pushes earlier, which holds decisions
// the later graph does not elect.
func javacMerged(b *testing.B) (pristine *bytecode.Program, snapshot *profile.DCG, prior *plan.Plan) {
	const name = "javac"
	pristine = jitProgram(b, name)
	store := dcgstore.New()
	pushers := []*cbsPusher{
		newCBSPusher(b, pristine.Clone(), bench.ByName(name).Small, 1),
		newCBSPusher(b, pristine.Clone(), bench.ByName(name).Small, 2),
	}
	for i := 0; i < 12; i++ {
		for _, p := range pushers {
			p.push(b, store)
		}
		if i < 4 {
			var err error
			if prior, err = plan.Compile(name, pristine, store.Snapshot(), plan.DefaultParams(), prior); err != nil {
				b.Fatal(err)
			}
		}
	}
	return pristine, store.Snapshot(), prior
}

// BenchmarkCompileWithPrior times plan.Compile on the retention path:
// javacMerged's graph compiled with no prior (fresh) and with its prior
// plan — a SiteWeightPercent of the conditioned graph for each decision
// the graph does not elect and, once one of them is a guard, one more
// inline.Evidence of it. held is how many the compile retained; the
// difference between the two rows is what retention adds to
// plan.compile_ms.javac.
func BenchmarkCompileWithPrior(b *testing.B) {
	const name = "javac"
	params := plan.DefaultParams()
	pristine, snapshot, prior := javacMerged(b)
	fresh, err := plan.Compile(name, pristine, snapshot, params, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		prior *plan.Plan
	}{{"fresh", nil}, {"prior", prior}} {
		b.Run(bc.name+"/"+name, func(b *testing.B) {
			b.ReportAllocs()
			var got *plan.Plan
			for i := 0; i < b.N; i++ {
				if got, err = plan.Compile(name, pristine, snapshot, params, bc.prior); err != nil {
					b.Fatal(err)
				}
			}
			held := len(got.Decisions) - len(fresh.Decisions)
			if bc.prior != nil && held == 0 {
				b.Fatal("the prior holds nothing on this graph; the row times no retention")
			}
			b.ReportMetric(float64(held), "held")
		})
	}
}

// BenchmarkSiteEstimate times what one compile pays to know its graph:
// an inline.Evidence of javacMerged's conditioned graph — one sort of the
// edges, the per-site and per-family sums — and the dominant target of
// every site it holds, each asked once.
func BenchmarkSiteEstimate(b *testing.B) {
	pristine, snapshot, _ := javacMerged(b)
	cond := plan.Condition(snapshot, plan.Floor, plan.Band)
	sites := cond.Sites()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := inline.NewEvidence(pristine, cond)
		for _, site := range sites {
			if _, _, ok := ev.Dominant(site); !ok {
				b.Fatalf("site %d has no dominant target", site)
			}
		}
	}
	b.ReportMetric(float64(len(sites)), "sites")
}

// verifyIters is how many iterations a puller's verify round replays in
// the repo benchmark's plan_loop.
const verifyIters = 2

// BenchmarkPlanEncode, BenchmarkPlanDecode, BenchmarkPlanApply and
// BenchmarkPullerVerifyRound time, one step each, what a served plan costs
// from the daemon's encode to the puller's go-ahead, on the plan
// benchService serves for each of benchPrograms. They are the twins of
// the repo benchmark's plan.encode_us_p50, plan.decode_us_p50 (ReadPlan),
// plan.apply_ms_p50 (Apply on a clone, the clone off the clock as it is
// its own span there) and puller.verify_round_ms (RunRound of the applied
// program at the small input).
func BenchmarkPlanEncode(b *testing.B) {
	for _, name := range benchPrograms {
		_, p := servedPlan(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				planBytes = p.Encode()
			}
			b.ReportMetric(float64(len(planBytes)), "bytes")
		})
	}
}

var planBytes []byte

func BenchmarkPlanDecode(b *testing.B) {
	for _, name := range benchPrograms {
		_, p := servedPlan(b, name)
		body := p.Encode()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.ReadPlan(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPlanApply(b *testing.B) {
	for _, name := range benchPrograms {
		pristine, p := servedPlan(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				candidate := pristine.Clone()
				b.StartTimer()
				if res, err := plan.Apply(candidate, p, inline.DefaultOptions()); err != nil || res.SkippedStale != 0 {
					b.Fatalf("apply: %v, %d stale", err, res.SkippedStale)
				}
			}
		})
	}
}

func BenchmarkPullerVerifyRound(b *testing.B) {
	for _, name := range benchPrograms {
		pristine, p := servedPlan(b, name)
		candidate := pristine.Clone()
		if _, err := plan.Apply(candidate, p, inline.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
		size := bench.ByName(name).Small
		want, _, err := puller.RunRound(pristine, size, verifyIters)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sums, _, err := puller.RunRound(candidate, size, verifyIters)
				if err != nil || !slices.Equal(sums, want) {
					b.Fatalf("verify round: checksums %v, want %v (err %v)", sums, want, err)
				}
			}
		})
	}
}

// servedPlan is the plan benchService serves for name, beside the
// pristine program it applies to.
func servedPlan(b *testing.B, name string) (*bytecode.Program, *plan.Plan) {
	svc, _, _ := benchService(b, name)
	p, err := svc.PlanForVersion(name, "")
	if err != nil {
		b.Fatal(err)
	}
	return jitProgram(b, name), p
}

// TestSkippedPullAllocatesOnlyTheSnapshot: a pull answered from an equal
// conditioned graph builds nothing of its own — no sorted edge list, no
// conditioned graph, no clone of the program.
func TestSkippedPullAllocatesOnlyTheSnapshot(t *testing.T) {
	svc, store, _ := benchService(t, "javac")
	snapshot := testing.AllocsPerRun(20, func() { store.Snapshot() })
	pull := testing.AllocsPerRun(20, func() {
		store.MergeDCG(nil)
		if _, err := svc.PlanForVersion("javac", ""); err != nil {
			t.Fatal(err)
		}
	})
	if pull > snapshot {
		t.Errorf("a skipped pull allocates %v times, the snapshot it takes %v", pull, snapshot)
	}
	if st := svc.Stats(); st.Skipped != 21 {
		t.Errorf("%d of 21 pulls skipped", st.Skipped)
	}
}

// TestServiceConcurrentPulls: pullers, a pusher and a metrics reader on
// one service at once (run under -race): every pull is answered, and
// every pull is counted at most once.
func TestServiceConcurrentPulls(t *testing.T) {
	svc, store, graph := benchService(t, "compress")
	const pullers, pulls = 4, 50
	var wg sync.WaitGroup
	for i := 0; i < pullers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < pulls; j++ {
				if p, err := svc.PlanForVersion("compress", ""); err != nil || p == nil {
					t.Errorf("pull: plan %v, err %v", p, err)
					return
				}
				svc.Stats()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < pulls; j++ {
			if j%10 == 0 {
				store.MergeDCG(graph)
			} else {
				store.MergeDCG(nil)
			}
		}
	}()
	wg.Wait()
	st := svc.Stats()
	if n := st.Computed + st.Unchanged + st.Skipped; st.Errors != 0 || n > pullers*pulls+1 {
		t.Errorf("stats = %+v after %d pulls", st, pullers*pulls+1)
	}
}

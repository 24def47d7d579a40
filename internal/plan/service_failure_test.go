package plan

import (
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// TestFailedCompileRemembersNothing: the graph a compile failed on must
// not become the graph the entry remembers, nor its counters the ones
// the entry holds — either would let the next pull "find the graph
// where the cached plan left it" and serve a plan that was never
// compiled from it. In-package because the only way to fail one compile
// of a build and not the next is to change the policy under the service.
func TestFailedCompileRemembersNothing(t *testing.T) {
	b := bench.ByName("compress")
	pristine, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := inline.JITOnly(pristine); err != nil {
		t.Fatal(err)
	}
	ex := profiler.NewExhaustive()
	m := vm.New(pristine.Clone())
	m.SetProfiler(ex)
	if _, err := m.Run(b.Small); err != nil {
		t.Fatal(err)
	}

	graph, merges := ex.Graph, uint64(1)
	svc := NewService(ServiceConfig{
		Source:         func(_, _ string) *profile.DCG { return graph.Clone() },
		Version:        func(_, _ string) (uint64, uint64) { return merges, 0 },
		CompileProgram: func(_, _ string) (*bytecode.Program, error) { return pristine, nil },
		Params:         DefaultParams(),
	})
	p1, err := svc.PlanForVersion("compress", "")
	if err != nil || len(p1.Decisions) == 0 {
		t.Fatalf("first plan: %v, err %v", p1, err)
	}

	// The profile vanishes, and compiling what is left fails.
	graph, merges = profile.NewDCG(), 2
	policy := svc.cfg.Params.Policy
	svc.cfg.Params.Policy = "no-such-policy"
	if _, err := svc.PlanForVersion("compress", ""); err == nil {
		t.Fatal("a plan compiled under a policy that does not exist")
	}

	// The same graph at the same counters, compilable again: it is
	// compiled, to the plan of an empty profile.
	svc.cfg.Params.Policy = policy
	p2, err := svc.PlanForVersion("compress", "")
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 || p2.Epoch != 2 || len(p2.Decisions) >= len(p1.Decisions) {
		t.Errorf("after a failed compile the same graph was served epoch %d with %d decisions, want epoch 2 and fewer than %d",
			p2.Epoch, len(p2.Decisions), len(p1.Decisions))
	}
	want := api.PlanMetrics{Programs: 1, Computed: 2, CompileErrors: 1}
	if st := svc.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}

	// That compile succeeded, so its graph is the one remembered: the
	// same graph at new counters is skipped.
	merges = 3
	if p, err := svc.PlanForVersion("compress", ""); err != nil || p != p2 || svc.Stats().Skipped != 1 {
		t.Errorf("equal graph at new counters: plan %p err %v skipped %d, want %p and 1", p, err, svc.Stats().Skipped, p2)
	}
}

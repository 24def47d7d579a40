package plan_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/dcgstore"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

const sequenceGolden = "testdata/plan_sequence.txt"

// cbsPusher is one fleet VM as the store sees it: a program running
// under CBS that pushes what it sampled since its last push.
type cbsPusher struct {
	id   string
	seq  uint64
	m    *vm.VM
	iter *bytecode.Method
	cbs  *profiler.CBS
	prev *profile.DCG
}

func newCBSPusher(t testing.TB, prog *bytecode.Program, size, seed int64) *cbsPusher {
	t.Helper()
	c := profiler.NewCBS(profiler.Config{Stride: 3, SamplesPerTick: 16, Flavour: profiler.FlavourRVM, Seed: seed})
	m := vm.New(prog)
	m.SetProfiler(c)
	m.SetTimer(20_000)
	iter, err := bench.Setup(m, size)
	if err != nil {
		t.Fatal(err)
	}
	return &cbsPusher{id: fmt.Sprintf("vm-seed%d", seed), m: m, iter: iter, cbs: c}
}

// push runs one more iteration and merges the delta it sampled.
func (p *cbsPusher) push(t testing.TB, store *dcgstore.Store) {
	t.Helper()
	if _, err := p.m.Call(p.iter); err != nil {
		t.Fatal(err)
	}
	delta := p.cbs.Graph.DeltaSince(p.prev)
	p.prev = p.cbs.Graph.Clone()
	p.seq++
	if !store.MergeDCGFrom(p.id, p.seq, delta) {
		t.Fatalf("%s: push %d not applied", p.id, p.seq)
	}
}

// TestPlanSequencePinned pins what a plan.Service over a real
// dcgstore.Store answers along a fixed schedule of real CBS deltas: two
// pushers a program (two seeds, 44 pushes each), a pull after every
// push, a second pull in a row after every fifth, a Decay in the middle.
// Every pull is one golden line — epoch, hash, number of decisions, and
// whether the service returned the very pointer of the pull before — and
// is held to a reference chain beside it that calls plan.Compile on the
// store's snapshot with its own previous result as prior. Whatever the
// service caches or skips, it must agree with that chain at every step.
func TestPlanSequencePinned(t *testing.T) {
	const pushes = 44
	params := plan.DefaultParams()
	var lines []string
	for _, name := range []string{"javac", "phases", "closures"} {
		b := bench.ByName(name)
		pristine := jitProgram(t, name)
		store := dcgstore.New()
		svc := plan.NewService(plan.ServiceConfig{
			Source:  func(_, _ string) *profile.DCG { return store.Snapshot() },
			Version: func(_, _ string) (uint64, uint64) { return store.Version() },
			CompileProgram: func(string, string) (*bytecode.Program, error) {
				return jitProgramErr(b)
			},
			Params: params,
		})
		pushers := []*cbsPusher{
			newCBSPusher(t, pristine.Clone(), b.Small, 1),
			newCBSPusher(t, pristine.Clone(), b.Small, 2),
		}

		var ref, last *plan.Plan
		pulls := 0
		pull := func(what string) {
			t.Helper()
			pulls++
			got, err := svc.PlanForVersion(name, "")
			if err != nil {
				t.Fatalf("%s pull %d (%s): %v", name, pulls, what, err)
			}
			want, err := plan.Compile(name, pristine, store.Snapshot(), params, ref)
			if err != nil {
				t.Fatalf("%s pull %d (%s): reference: %v", name, pulls, what, err)
			}
			ref = want
			if got.Epoch != want.Epoch || got.Hash != want.Hash || !got.Equal(want) {
				t.Errorf("%s pull %d (%s): service serves epoch %d hash %016x (%d decisions), the reference chain epoch %d hash %016x (%d)",
					name, pulls, what, got.Epoch, got.Hash, len(got.Decisions), want.Epoch, want.Hash, len(want.Decisions))
			}
			lines = append(lines, fmt.Sprintf("%s %03d %-6s epoch=%d hash=%016x decisions=%d same=%t",
				name, pulls, what, got.Epoch, got.Hash, len(got.Decisions), got == last))
			last = got
		}

		for i := 0; i < pushes; i++ {
			for _, p := range pushers {
				p.push(t, store)
				pull("push")
				if p.seq%5 == 0 {
					pull("again")
				}
			}
			if i == pushes/2 {
				store.Decay(0.5, 0.75)
				pull("decay")
			}
		}
	}
	text := strings.Join(lines, "\n") + "\n"

	if *updateGolden {
		if err := os.WriteFile(sequenceGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(sequenceGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden at a commit whose plan service is the reference)", err)
	}
	if text == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, line := range lines {
		if i >= len(wantLines) || wantLines[i] != line {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("plan sequence moved:\n got  %s\n want %s", line, w)
		}
	}
	if len(wantLines) > len(lines) {
		t.Errorf("%d pinned pulls were not made", len(wantLines)-len(lines))
	}
}

package plan_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/inline"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
)

// fakeStore stands in for the dcgstore: a graph plus a version the
// test bumps explicitly.
type fakeStore struct {
	graph     *profile.DCG
	merges    uint64
	snapshots int
}

func (f *fakeStore) service(t *testing.T, stateDir string) *plan.Service {
	t.Helper()
	return plan.NewService(plan.ServiceConfig{
		Source: func(_, _ string) *profile.DCG {
			f.snapshots++
			return f.graph.Clone()
		},
		Version: func(_, _ string) (uint64, uint64) { return f.merges, 0 },
		CompileProgram: func(name, _ string) (*bytecode.Program, error) {
			b := bench.ByName(name)
			if b == nil {
				return nil, fmt.Errorf("%w: %q", plan.ErrUnknownProgram, name)
			}
			return jitProgramErr(b)
		},
		Params:   plan.DefaultParams(),
		StateDir: stateDir,
		Logf:     t.Logf,
	})
}

func jitProgramErr(b *bench.Benchmark) (*bytecode.Program, error) {
	prog, err := b.Compile()
	if err != nil {
		return nil, err
	}
	if _, err := inline.Optimize(prog, inline.Trivial{}, nil, inline.DefaultOptions()); err != nil {
		return nil, err
	}
	return prog, nil
}

func TestServiceCachesUntilStoreChanges(t *testing.T) {
	pristine := jitProgram(t, "compress")
	b := bench.ByName("compress")
	fs := &fakeStore{graph: exhaustiveGraph(t, pristine.Clone(), b.Small, 3), merges: 1}
	svc := fs.service(t, "")

	p1, err := svc.PlanForVersion("compress", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Decisions) == 0 || p1.Epoch != 1 {
		t.Fatalf("unexpected first plan: epoch %d, %d decisions", p1.Epoch, len(p1.Decisions))
	}
	// Same store version: served from cache, no new snapshot.
	before := fs.snapshots
	p2, err := svc.PlanForVersion("compress", "")
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Error("cached request recompiled the plan")
	}
	if fs.snapshots != before {
		t.Errorf("cached request took %d extra snapshots", fs.snapshots-before)
	}

	// Version bump with unchanged content: one snapshot to see that the
	// conditioned graph stands where p1 was compiled from it, and then
	// no compile — skipped, not unchanged.
	fs.merges++
	p3, err := svc.PlanForVersion("compress", "")
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Error("identical graph minted a new plan after a version bump")
	}
	if fs.snapshots != before+1 {
		t.Errorf("version bump took %d snapshots, want exactly 1", fs.snapshots-before)
	}
	if st := svc.Stats(); st.Skipped != 1 || st.Computed != 1 || st.Unchanged != 0 {
		t.Errorf("after a version bump over an equal graph: stats = %+v, want 1 skipped, 1 computed, 0 unchanged", st)
	}
	// A bump that moves weights, but none off its grid point or over
	// the floor, skips too.
	fs.graph = fs.graph.MapWeights(func(_ profile.Edge, w float64) float64 { return w * (1 + 1e-9) })
	fs.graph.AddSample(profile.Edge{Caller: 999, Site: 9999, Callee: 998}, plan.Floor/2)
	fs.merges++
	if p, err := svc.PlanForVersion("compress", ""); err != nil || p != p1 {
		t.Errorf("sub-band drift: plan %p err %v, want the cached %p", p, err, p1)
	}
	if st := svc.Stats(); st.Skipped != 2 {
		t.Errorf("sub-band drift: skipped = %d, want 2", st.Skipped)
	}

	// A real graph change — the profile vanishing entirely — mints a
	// new epoch with the profile-driven decisions gone.
	fs.graph = profile.NewDCG()
	fs.merges++
	p4, err := svc.PlanForVersion("compress", "")
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Fatal("profile-driven and profile-free plans are identical; compress no longer exercises the profile")
	}
	if p4.Epoch != p1.Epoch+1 {
		t.Errorf("changed graph: epoch %d, want %d", p4.Epoch, p1.Epoch+1)
	}

	// The profile comes back: the elected set is p1's again, under a
	// third epoch. One more real change that elects nothing new — the
	// same graph at twice the weight, every edge three grid points up —
	// is compiled and returns its prior: unchanged, not skipped.
	fs.graph = exhaustiveGraph(t, pristine.Clone(), b.Small, 3)
	fs.merges++
	p5, err := svc.PlanForVersion("compress", "")
	if err != nil {
		t.Fatal(err)
	}
	if p5.Epoch != 3 || p5.Hash != p1.Hash {
		t.Errorf("profile restored: epoch %d hash %016x, want epoch 3 hash %016x", p5.Epoch, p5.Hash, p1.Hash)
	}
	fs.graph.Merge(fs.graph.Clone())
	fs.merges++
	if p, err := svc.PlanForVersion("compress", ""); err != nil || p != p5 {
		t.Errorf("doubled graph: plan %p err %v, want the prior %p verbatim", p, err, p5)
	}

	want := api.PlanMetrics{Programs: 1, Computed: 3, Unchanged: 1, Skipped: 2}
	if st := svc.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
}

func TestServiceUnknownProgram(t *testing.T) {
	fs := &fakeStore{graph: profile.NewDCG()}
	svc := fs.service(t, "")
	if _, err := svc.PlanForVersion("no-such-benchmark", ""); !errors.Is(err, plan.ErrUnknownProgram) {
		t.Errorf("unknown benchmark: err = %v, want ErrUnknownProgram", err)
	}
	if _, err := svc.PlanForVersion("../escape", ""); !errors.Is(err, plan.ErrUnknownProgram) {
		t.Errorf("invalid name: err = %v, want ErrUnknownProgram", err)
	}
}

// TestCompileErrorsCountsOnlyCompiles: Stats().CompileErrors is what
// /v1/metrics reports as plan.compile_errors. A request for a program
// or a build that does not exist is the requester's mistake — servers
// count it as a refused request, and the second kind as a version
// mismatch too — and must not read as a compiler failing.
func TestCompileErrorsCountsOnlyCompiles(t *testing.T) {
	fs := &fakeStore{graph: profile.NewDCG()}
	svc := fs.service(t, "")
	for _, name := range []string{"no-such-benchmark", "../escape"} {
		if _, err := svc.PlanForVersion(name, ""); !errors.Is(err, plan.ErrUnknownProgram) {
			t.Errorf("%s: err = %v, want ErrUnknownProgram", name, err)
		}
	}
	if _, err := svc.PlanForVersion("compress", "00000000deadbeef"); !errors.Is(err, plan.ErrUnknownVersion) {
		t.Errorf("foreign build: err = %v, want ErrUnknownVersion", err)
	}
	if st := svc.Stats(); st.CompileErrors != 0 || st.VersionMismatches != 1 {
		t.Errorf("after three refused requests: %d compile errors and %d version mismatches, want 0 and 1", st.CompileErrors, st.VersionMismatches)
	}

	// A compile that does fail is counted, every time it is tried.
	broken := plan.NewService(plan.ServiceConfig{
		Source:  func(_, _ string) *profile.DCG { return profile.NewDCG() },
		Version: func(_, _ string) (uint64, uint64) { return 1, 0 },
		CompileProgram: func(name, _ string) (*bytecode.Program, error) {
			return jitProgramErr(bench.ByName(name))
		},
		Params: plan.Params{Policy: "no-such-policy"},
	})
	for i := 1; i <= 2; i++ {
		if _, err := broken.PlanForVersion("compress", ""); err == nil {
			t.Fatal("a plan compiled under a policy that does not exist")
		}
		if st := broken.Stats(); st.CompileErrors != uint64(i) || st.Skipped != 0 {
			t.Errorf("failed compile %d: %d compile errors, %d skipped; want %d and 0", i, st.CompileErrors, st.Skipped, i)
		}
	}
}

// TestServiceEpochSurvivesRestart: a second service over the same
// state dir and an equivalent graph serves the byte-identical plan —
// same epoch, same hash — and a later genuine change continues the
// epoch sequence rather than restarting at 1.
func TestServiceEpochSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	pristine := jitProgram(t, "compress")
	b := bench.ByName("compress")
	g := exhaustiveGraph(t, pristine.Clone(), b.Small, 3)

	fs1 := &fakeStore{graph: g, merges: 1}
	svc1 := fs1.service(t, dir)
	p1, err := svc1.PlanForVersion("compress", "")
	if err != nil {
		t.Fatal(err)
	}
	// Advance to epoch 2 so the restart has something nontrivial to
	// preserve.
	fs1.graph = profile.NewDCG()
	fs1.merges++
	p2, err := svc1.PlanForVersion("compress", "")
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Fatal("profile-free recompile returned the profile-driven plan")
	}
	if _, err := os.Stat(filepath.Join(dir, "plan-compress@"+pristine.Version()+".plnb")); err != nil {
		t.Fatalf("plan file not persisted: %v", err)
	}

	// "Restart": fresh service, same state dir, same (restored) graph.
	fs2 := &fakeStore{graph: fs1.graph.Clone(), merges: 1}
	svc2 := fs2.service(t, dir)
	p3, err := svc2.PlanForVersion("compress", "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p3.Encode(), p2.Encode()) {
		t.Errorf("restarted service serves different bytes: epoch %d hash %016x vs epoch %d hash %016x",
			p3.Epoch, p3.Hash, p2.Epoch, p2.Hash)
	}

	// A post-restart change continues the epoch chain (the profile
	// returns, so the profile-driven decisions come back as epoch 3).
	fs2.graph = g.Clone()
	fs2.merges++
	p4, err := svc2.PlanForVersion("compress", "")
	if err != nil {
		t.Fatal(err)
	}
	if p4.Epoch != p3.Epoch+1 {
		t.Errorf("post-restart change: epoch %d, want %d", p4.Epoch, p3.Epoch+1)
	}
}

// TestServiceRestoreRefusesForeignPlan pins the blind-restore fix: a
// prior plan file is only adopted when its program name AND
// content-addressed version match the build being compiled. A file
// left behind by another build (or another program entirely) is
// discarded with an epoch reset, and the version-less file name
// plan-<program>.plnb is not read at all.
func TestServiceRestoreRefusesForeignPlan(t *testing.T) {
	pristine := jitProgram(t, "compress")
	b := bench.ByName("compress")
	g := exhaustiveGraph(t, pristine.Clone(), b.Small, 3)

	// Build an epoch-2 plan worth preserving.
	fs := &fakeStore{graph: g, merges: 1}
	seedDir := t.TempDir()
	svc := fs.service(t, seedDir)
	if _, err := svc.PlanForVersion("compress", ""); err != nil {
		t.Fatal(err)
	}
	fs.graph = profile.NewDCG()
	fs.merges++
	p2, err := svc.PlanForVersion("compress", "")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Epoch != 2 {
		t.Fatalf("setup: epoch %d, want 2", p2.Epoch)
	}

	restartEpoch := func(dir string) uint64 {
		t.Helper()
		fresh := &fakeStore{graph: fs.graph.Clone(), merges: 1}
		p, err := fresh.service(t, dir).PlanForVersion("compress", "")
		if err != nil {
			t.Fatal(err)
		}
		return p.Epoch
	}

	// The file name the service itself writes, as the positive control:
	// this build's own plan under it continues its epochs.
	own := "plan-compress@" + pristine.Version() + ".plnb"
	ownDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(ownDir, own), p2.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	if e := restartEpoch(ownDir); e != p2.Epoch {
		t.Errorf("own prior: epoch %d, want %d (prior not adopted)", e, p2.Epoch)
	}

	// The same bytes under the name daemons wrote before plans carried a
	// version are not looked for: the epoch starts at 1.
	legacyDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacyDir, "plan-compress.plnb"), p2.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	if e := restartEpoch(legacyDir); e != 1 {
		t.Errorf("plan-compress.plnb: epoch %d, want 1 (the legacy file name must be ignored)", e)
	}

	// Version mismatch: the same decisions stamped as another build.
	foreign := *p2
	foreign.Version = "00000000deadbeef"
	foreign.Hash = foreign.ContentHash()
	foreignDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(foreignDir, own), foreign.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	if e := restartEpoch(foreignDir); e != 1 {
		t.Errorf("foreign-version prior: epoch %d, want 1 (prior must be discarded)", e)
	}

	// Name mismatch: a different program's plan squatting on the file.
	wrongName := *p2
	wrongName.Program = "mtrt"
	wrongName.Hash = wrongName.ContentHash()
	wrongDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(wrongDir, own), wrongName.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	if e := restartEpoch(wrongDir); e != 1 {
		t.Errorf("wrong-program prior: epoch %d, want 1 (prior must be discarded)", e)
	}
}

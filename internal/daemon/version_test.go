package daemon

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/dcgstore"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
	"gocbs/internal/profiler"
	"gocbs/internal/vm"
)

// keyedClient is a dcgstore client stamping pushes with one build's
// identity, pointed at the test daemon.
func keyedClient(url, program, version string) *dcgstore.Client {
	c := dcgstore.NewClient(url)
	c.Key = api.ProgramKey{Program: program, Version: version}
	return c
}

// TestPlanCacheScopedPerProgram pins the over-invalidation fix: the
// plan cache is validated against per-program mutation counters, so
// ingest for one program no longer forces a recompile of every other
// program's plan. Before the fix the service compared against the
// store's global merge counter, and any push anywhere invalidated
// everything.
func TestPlanCacheScopedPerProgram(t *testing.T) {
	ts, _ := newTestDaemon(t)
	g := exhaustiveFor(t, "compress")

	if err := dcgstore.NewClient(ts.URL).PushDelta("vm-a", 1, g); err != nil {
		t.Fatal(err)
	}
	first := fetchPlanBytes(t, ts.URL)
	m := fetchMetrics(t, ts.URL)
	if m.Plan.Computed != 1 {
		t.Fatalf("plan.computed = %v after first request, want 1", m.Plan.Computed)
	}

	// Unrelated traffic: keyed pushes for a different program. They
	// mutate that program's substore, not compress's inputs.
	other := profile.NewDCG()
	other.AddSample(edge(1, 1, 2), 100)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := keyedClient(ts.URL, "mtrt", "ab12cd34").PushDelta("vm-b", seq, other); err != nil {
			t.Fatal(err)
		}
	}

	// Re-fetching compress's plan must be a pure cache hit: same bytes,
	// no recompile — neither plan.computed nor plan.unchanged moves.
	second := fetchPlanBytes(t, ts.URL)
	if !bytes.Equal(first, second) {
		t.Error("unrelated keyed pushes changed the served plan bytes")
	}
	m = fetchMetrics(t, ts.URL)
	if m.Plan.Computed != 1 {
		t.Errorf("plan.computed = %v after unrelated pushes, want 1 (cache over-invalidated)", m.Plan.Computed)
	}
	if m.Plan.Unchanged != 0 {
		t.Errorf("plan.unchanged = %v after unrelated pushes, want 0 (recompile happened)", m.Plan.Unchanged)
	}

	// Related traffic does re-validate: one more compress push, one
	// recompile — counted as computed or unchanged depending on whether
	// the decisions moved, but exactly one of them moves.
	if err := dcgstore.NewClient(ts.URL).PushDelta("vm-a", 2, g); err != nil {
		t.Fatal(err)
	}
	fetchPlanBytes(t, ts.URL)
	m = fetchMetrics(t, ts.URL)
	computed, unchanged := m.Plan.Computed, m.Plan.Unchanged
	if computed+unchanged != 2 {
		t.Errorf("computed %v + unchanged %v = %v after a related push, want exactly 2 recompiles",
			computed, unchanged, computed+unchanged)
	}
	if m.Plan.Skipped != 0 {
		t.Errorf("plan.skipped = %v, want 0: every pull so far followed a push that moved the graph or none at all", m.Plan.Skipped)
	}

	// A related push that leaves the conditioned graph where it was —
	// half a sample on an edge of its own stays under the floor — costs
	// the next pull a look at the graph and no compile.
	faint := profile.NewDCG()
	faint.AddSample(edge(900, 9000, 901), 0.5)
	if err := dcgstore.NewClient(ts.URL).PushDelta("vm-a", 3, faint); err != nil {
		t.Fatal(err)
	}
	fetchPlanBytes(t, ts.URL)
	m = fetchMetrics(t, ts.URL)
	if m.Plan.Skipped != 1 || m.Plan.Computed != computed || m.Plan.Unchanged != unchanged {
		t.Errorf("after a sub-floor push: skipped %v computed %v unchanged %v, want 1, %v, %v",
			m.Plan.Skipped, m.Plan.Computed, m.Plan.Unchanged, computed, unchanged)
	}
}

// exhaustiveFor collects an exhaustive profile of one benchmark under
// its canonical JIT-only build.
func exhaustiveFor(t *testing.T, name string) *profile.DCG {
	t.Helper()
	b := bench.ByName(name)
	prog := jitClone(t, b)
	ex := profiler.NewExhaustive()
	m := vm.New(prog)
	m.SetProfiler(ex)
	if _, err := m.Run(b.SizeFor("small")); err != nil {
		t.Fatal(err)
	}
	return ex.Graph
}

// TestTwoBuildsOneNameStayApart is the regression test for the
// cross-version aliasing bug at the daemon boundary: two builds
// pushing under the same program name used to merge into one graph
// (and feed one plan), corrupting both. With version-stamped ingest
// the daemon keeps a substore per build, serves each on
// /snapshot?program=&version=, and refuses to serve a plan for a build
// it cannot compile instead of serving the canonical build's plan as
// if it applied.
func TestTwoBuildsOneNameStayApart(t *testing.T) {
	ts, _ := newTestDaemon(t)
	const vA, vB = "00000000aaaaaaaa", "00000000bbbbbbbb"

	gA := profile.NewDCG()
	gA.AddSample(edge(1, 1, 2), 10)
	gA.AddSample(edge(2, 2, 3), 20)
	gB := profile.NewDCG()
	gB.AddSample(edge(1, 1, 7), 300) // same site, different callee: the aliasing poison
	if err := keyedClient(ts.URL, "compress", vA).PushDelta("vm-a", 1, gA); err != nil {
		t.Fatal(err)
	}
	if err := keyedClient(ts.URL, "compress", vB).PushDelta("vm-b", 1, gB); err != nil {
		t.Fatal(err)
	}

	snap := func(version string) *profile.DCG {
		t.Helper()
		resp := mustGet(t, ts.URL+api.PathSnapshot+"?program=compress&version="+version)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("snapshot @%s: %s: %s", version, resp.Status, body)
		}
		g, err := profile.ReadDCG(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := snap(vA), snap(vB)
	if a.Weight(edge(1, 1, 7)) != 0 || a.Total() != gA.Total() {
		t.Errorf("build A's graph is contaminated: weight(1,1,7)=%v total=%v want 0/%v",
			a.Weight(edge(1, 1, 7)), a.Total(), gA.Total())
	}
	if b.Weight(edge(1, 1, 2)) != 0 || b.Total() != gB.Total() {
		t.Errorf("build B's graph is contaminated: weight(1,1,2)=%v total=%v want 0/%v",
			b.Weight(edge(1, 1, 2)), b.Total(), gB.Total())
	}

	// The unparameterized snapshot is the cross-version merge — the
	// fleet-wide view — and must hold both totals.
	resp := mustGet(t, ts.URL+api.PathSnapshot)
	merged, err := profile.ReadDCG(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Total() != gA.Total()+gB.Total() {
		t.Errorf("merged snapshot total %v, want %v", merged.Total(), gA.Total()+gB.Total())
	}

	// Plans: the daemon can only compile its canonical build. A request
	// for either pushed fake version must 404 (counted) — never serve
	// the canonical build's plan under a version it doesn't match.
	for _, v := range []string{vA, vB} {
		resp := mustGet(t, ts.URL+api.PathPlan+"?program=compress&version="+v)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("plan @%s: status %d, want 404", v, resp.StatusCode)
		}
	}
	if mm := fetchMetrics(t, ts.URL).Plan.VersionMismatches; mm < 2 {
		t.Errorf("plan.version_mismatches = %v, want >= 2", mm)
	}

	// And the canonical build's plan is served stamped with its own
	// content-addressed version.
	canonical := jitClone(t, bench.ByName("compress")).Version()
	p, err := plan.ReadPlan(bytes.NewReader(fetchPlanBytes(t, ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	if p.Version != canonical {
		t.Errorf("canonical plan stamped %q, want %q", p.Version, canonical)
	}
}

// TestMetricsCoverKeyedSubstores: the store figures in /v1/metrics sum
// every substore. A fleet that stamps its pushes (every cbsvm) used to
// read edges, pushers and duplicates stuck at 0, because the handler
// looked at the default substore only; and the flat ingest_ms_* and
// plan_* aliases of the nested groups are gone from the JSON.
func TestMetricsCoverKeyedSubstores(t *testing.T) {
	ts, _ := newTestDaemon(t)
	g := profile.NewDCG()
	g.AddSample(edge(1, 1, 2), 100)
	c := keyedClient(ts.URL, "compress", "ab12cd34")
	for i := 0; i < 2; i++ { // the second is a re-send of the same stamp
		if err := c.PushDelta("vm-a", 1, g); err != nil {
			t.Fatal(err)
		}
	}
	fetchPlanBytes(t, ts.URL) // so the plan group has something to say

	m := fetchMetrics(t, ts.URL)
	if m.Edges != 1 || m.TotalWeight != 100 || m.SamplesIngested != 100 || m.Merges != 1 {
		t.Errorf("store figures miss the keyed substore: %d edges, %v weight, %v ingested, %d merges",
			m.Edges, m.TotalWeight, m.SamplesIngested, m.Merges)
	}
	if m.Pushers != 1 || m.IngestDups != 1 || m.Ingests != 2 {
		t.Errorf("pushers %d, duplicates %d, ingests %d; want 1, 1, 2", m.Pushers, m.IngestDups, m.Ingests)
	}
	if m.IngestLat == nil || m.Plan == nil {
		t.Fatalf("nested groups missing: ingest_lat %v, plan %v", m.IngestLat, m.Plan)
	}
	for key := range decodeJSON(t, mustGet(t, ts.URL+api.PathMetrics)) {
		if strings.HasPrefix(key, "ingest_ms_") || strings.HasPrefix(key, "plan_") {
			t.Errorf("retired flat alias %q still in /v1/metrics", key)
		}
	}
}

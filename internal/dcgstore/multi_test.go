package dcgstore

import (
	"bytes"
	"os"
	"testing"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

func compileBench(t *testing.T, name string) *bytecode.Program {
	t.Helper()
	b := bench.ByName(name)
	if b == nil {
		t.Fatalf("no benchmark %q", name)
	}
	p, err := b.Compile()
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return p
}

// upgrade applies the canonical behaviour-preserving build change used
// across this package's version tests: one extra unused constant on the
// entry method. The program still runs identically, but its version —
// and exactly one method fingerprint — changes.
func upgrade(p *bytecode.Program) *bytecode.Program {
	q := p.Clone()
	q.Methods[q.Entry.ID].Consts = append(q.Methods[q.Entry.ID].Consts, 0x5eed)
	return q
}

func dcgOf(samples ...[4]int) *profile.DCG {
	g := profile.NewDCG()
	for _, s := range samples {
		g.AddSample(profile.Edge{Caller: s[0], Site: s[1], Callee: s[2]}, float64(s[3]))
	}
	return g
}

func dcgBytesOf(t *testing.T, g *profile.DCG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return buf.Bytes()
}

// TestCrossVersionAliasingRegression pins the bug this PR exists to
// fix. A plain Store merges pushes from two different builds of
// "compress" into one graph: method IDs from build B land on build A's
// edges and the aggregate equals neither build's truth. A Multi keyed
// by (program, version) keeps the two builds' graphs separate and each
// one exactly equals what its own pushers sent.
func TestCrossVersionAliasingRegression(t *testing.T) {
	// Build A says edge (1, 0, 2) is hot; build B reuses method ID 1
	// for a different method and says (1, 0, 3) is hot.
	fromA := dcgOf([4]int{1, 0, 2, 100})
	fromB := dcgOf([4]int{1, 0, 3, 40})

	// Old behaviour: one shared store, name-only identity.
	flat := New()
	flat.MergeDCGFrom("vm-a", 1, fromA)
	flat.MergeDCGFrom("vm-b", 1, fromB)
	merged := flat.Snapshot()
	if got := dcgBytesOf(t, merged); bytes.Equal(got, dcgBytesOf(t, fromA)) ||
		bytes.Equal(got, dcgBytesOf(t, fromB)) {
		t.Fatal("expected the flat store to corrupt the aggregate (neither build's truth)")
	}
	// The corruption is silent: both builds' weight is present, fused
	// under aliased IDs.
	if merged.Total() != fromA.Total()+fromB.Total() {
		t.Fatalf("flat store total %v, want %v", merged.Total(), fromA.Total()+fromB.Total())
	}

	// New behaviour: version-scoped substores, no aliasing.
	m := NewMulti(4)
	keyA := api.ProgramKey{Program: "compress", Version: "00000000000000aa"}
	keyB := api.ProgramKey{Program: "compress", Version: "00000000000000bb"}
	m.For(keyA).MergeDCGFrom("vm-a", 1, fromA)
	m.For(keyB).MergeDCGFrom("vm-b", 1, fromB)
	if got := dcgBytesOf(t, m.Lookup(keyA).Snapshot()); !bytes.Equal(got, dcgBytesOf(t, fromA)) {
		t.Fatal("version A's graph is not exactly what A pushed")
	}
	if got := dcgBytesOf(t, m.Lookup(keyB).Snapshot()); !bytes.Equal(got, dcgBytesOf(t, fromB)) {
		t.Fatal("version B's graph is not exactly what B pushed")
	}
	// The cross-version merged view still reports total mass.
	if got := m.MergedSnapshot().Total(); got != fromA.Total()+fromB.Total() {
		t.Fatalf("merged snapshot total %v", got)
	}
}

func TestMultiZeroKeyAndBounds(t *testing.T) {
	m := NewMulti(2)
	// The zero key's substore exists from the start and is not a build.
	if s := m.Lookup(api.ProgramKey{}); s == nil || m.For(api.ProgramKey{}) != s {
		t.Fatal("zero key must name a substore that exists from NewMulti on")
	}
	if m.NumKeys() != 0 || len(m.Keys()) != 0 {
		t.Fatalf("fresh Multi counts %d builds (%v), want none", m.NumKeys(), m.Keys())
	}
	for _, bad := range []api.ProgramKey{
		{Program: "", Version: "00"},
		{Program: "p", Version: ""},
		{Program: "p", Version: "XYZ"},
		{Program: "a@b", Version: "00"},
		{Program: "a/b", Version: "00"},
	} {
		if m.For(bad) != nil {
			t.Fatalf("malformed key %+v accepted", bad)
		}
	}
	// The ledger is bounded.
	for i := 0; i < MaxProgramKeys; i++ {
		if m.For(api.ProgramKey{Program: "p", Version: versionHex(i)}) == nil {
			t.Fatalf("key %d refused below the cap", i)
		}
	}
	if m.For(api.ProgramKey{Program: "p", Version: versionHex(MaxProgramKeys)}) != nil {
		t.Fatal("ledger accepted a key past the cap")
	}
	if m.NumKeys() != MaxProgramKeys {
		t.Fatalf("NumKeys = %d", m.NumKeys())
	}
}

func versionHex(i int) string {
	const hexd = "0123456789abcdef"
	return string([]byte{
		hexd[(i>>12)&0xf], hexd[(i>>8)&0xf], hexd[(i>>4)&0xf], hexd[i&0xf],
	})
}

func TestCarryForwardKeepsUnchangedMethodsOnly(t *testing.T) {
	p1 := compileBench(t, "compress")

	// Pick two sites with distinct owners; the second owner is the
	// method the upgrade will touch.
	goodSite, badSite := -1, -1
	unchangedA, changed := -1, -1
	for s, site := range p1.Sites {
		if site.Owner < 0 {
			continue
		}
		id := site.Owner
		if goodSite < 0 {
			goodSite, unchangedA = s, id
		} else if id != unchangedA {
			badSite, changed = s, id
			break
		}
	}
	if badSite < 0 {
		t.Fatal("benchmark has fewer than two site owners")
	}
	unchangedB := -1
	for id := range p1.Methods {
		if id != changed && id != unchangedA {
			unchangedB = id
			break
		}
	}

	p2 := p1.Clone()
	p2.Methods[changed].Consts = append(p2.Methods[changed].Consts, 0x5eed)
	m1 := p1.BuildManifest("compress")
	m2 := p2.BuildManifest("compress")

	old := profile.NewDCG()
	old.AddSample(profile.Edge{Caller: unchangedA, Site: goodSite, Callee: unchangedB}, 50)
	old.AddSample(profile.Edge{Caller: changed, Site: badSite, Callee: unchangedB}, 30)
	old.AddSample(profile.Edge{Caller: unchangedA, Site: goodSite, Callee: changed}, 20)

	carried := CarryForward(old, m1, m2)
	// Only the edge whose caller, callee, AND site owner are all
	// unchanged survives; the upgrade transform moves no IDs, so it
	// survives verbatim.
	if carried.NumEdges() != 1 || carried.Total() != 50 {
		t.Fatalf("carried %d edges / weight %v, want 1 / 50", carried.NumEdges(), carried.Total())
	}
	if w := carried.Weight(profile.Edge{Caller: unchangedA, Site: goodSite, Callee: unchangedB}); w != 50 {
		t.Fatalf("surviving edge weight %v", w)
	}
	// Nil inputs carry nothing.
	if g := CarryForward(nil, m1, m2); g.NumEdges() != 0 {
		t.Fatal("nil graph carried edges")
	}
	if g := CarryForward(old, nil, m2); g.NumEdges() != 0 {
		t.Fatal("nil manifest carried edges")
	}
}

func TestRegisterManifestCarriesForwardOnce(t *testing.T) {
	p1 := compileBench(t, "compress")
	p2 := upgrade(p1)
	man1 := p1.BuildManifest("compress")
	man2 := p2.BuildManifest("compress")
	key1 := api.ProgramKey{Program: "compress", Version: man1.Version}
	key2 := api.ProgramKey{Program: "compress", Version: man2.Version}

	m := NewMulti(4)
	if _, _, err := m.RegisterManifest(man1); err != nil {
		t.Fatalf("register v1: %v", err)
	}
	if m.LatestVersion("compress") != man1.Version {
		t.Fatal("succession not established")
	}

	// Profile mass for v1: an edge whose caller/site-owner/callee all
	// avoid the entry method (the one the upgrade changes).
	site, caller := -1, -1
	for s, st := range p1.Sites {
		if st.Owner >= 0 && st.Owner != p1.Entry.ID {
			site, caller = s, st.Owner
			break
		}
	}
	if site < 0 {
		t.Fatal("no site owned by a non-entry method")
	}
	callee := -1
	for id := range p1.Methods {
		if id != p1.Entry.ID {
			callee = id
			break
		}
	}
	g := profile.NewDCG()
	g.AddSample(profile.Edge{Caller: caller, Site: site, Callee: callee}, 64)
	m.For(key1).MergeDCGFrom("vm", 1, g)

	edges, weight, err := m.RegisterManifest(man2)
	if err != nil {
		t.Fatalf("register v2: %v", err)
	}
	if edges != 1 || weight != 64 {
		t.Fatalf("carried (%d, %v), want (1, 64)", edges, weight)
	}
	if m.LatestVersion("compress") != man2.Version {
		t.Fatal("succession did not advance")
	}
	if got := m.Lookup(key2).Snapshot().Total(); got != 64 {
		t.Fatalf("v2 substore total %v", got)
	}
	// Idempotent: a retried registration must not double the carry.
	edges, weight, err = m.RegisterManifest(man2)
	if err != nil || edges != 1 || weight != 64 {
		t.Fatalf("re-register: (%d, %v, %v)", edges, weight, err)
	}
	if got := m.Lookup(key2).Snapshot().Total(); got != 64 {
		t.Fatalf("re-register doubled the carry: total %v", got)
	}
	// Conservation bookkeeping survives: carried graph is recorded.
	if c := m.Carried(key2); c == nil || c.Total() != 64 {
		t.Fatal("carried graph not recorded")
	}
}

func TestMultiCheckpointRoundTrip(t *testing.T) {
	dir, err := os.MkdirTemp("", "multi-ckpt-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)

	p1 := compileBench(t, "compress")
	p2 := upgrade(p1)
	man1 := p1.BuildManifest("compress")
	man2 := p2.BuildManifest("compress")
	key1 := api.ProgramKey{Program: "compress", Version: man1.Version}
	key2 := api.ProgramKey{Program: "compress", Version: man2.Version}

	m := NewMulti(4)
	m.For(api.ProgramKey{}).MergeDCGFrom("legacy", 1, dcgOf([4]int{0, 0, 1, 5}))
	if _, _, err := m.RegisterManifest(man1); err != nil {
		t.Fatal(err)
	}
	m.For(key1).MergeDCGFrom("vm1", 3, dcgOf([4]int{1, 0, 2, 10}))
	if _, _, err := m.RegisterManifest(man2); err != nil {
		t.Fatal(err)
	}
	m.For(key2).MergeDCGFrom("vm2", 7, dcgOf([4]int{1, 0, 2, 4}))

	if err := SaveMultiCheckpoint(dir, m); err != nil {
		t.Fatalf("save: %v", err)
	}

	r := NewMulti(4)
	restored, err := RestoreMultiCheckpoint(r, dir)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !restored {
		t.Fatal("restore found nothing")
	}
	// Byte identity per substore (the restart-identity invariant's
	// store-level core).
	for _, key := range []api.ProgramKey{{}, key1, key2} {
		want := dcgBytesOf(t, m.Lookup(key).Snapshot())
		got := dcgBytesOf(t, r.Lookup(key).Snapshot())
		if !bytes.Equal(want, got) {
			t.Fatalf("substore %q not byte-identical after restore", key.String())
		}
	}
	// Sequences survive per substore: a retried increment still dedups.
	if r.Lookup(key1).MergeDCGFrom("vm1", 3, dcgOf([4]int{9, 9, 9, 1})) {
		t.Fatal("restored substore re-applied an already-acked increment")
	}
	if r.Lookup(key1).MergeDCGFrom("vm1", 4, dcgOf([4]int{9, 9, 9, 1})) != true {
		t.Fatal("restored substore refused the next increment")
	}
	// Manifests, carried graphs, and succession survive.
	if r.Manifest(key2) == nil || r.LatestVersion("compress") != man2.Version {
		t.Fatal("manifest/succession lost in restore")
	}
	if mc, rc := m.Carried(key2), r.Carried(key2); mc != nil {
		if rc == nil || rc.Total() != mc.Total() {
			t.Fatal("carried graph lost in restore")
		}
	}
	// A registration retry after restart must still be a no-op.
	before := r.Lookup(key2).Snapshot().Total()
	if _, _, err := r.RegisterManifest(man2); err != nil {
		t.Fatal(err)
	}
	if after := r.Lookup(key2).Snapshot().Total(); after != before {
		t.Fatalf("post-restore re-registration changed the graph: %v -> %v", before, after)
	}
}

// TestEvictRetiredVersions drives the version GC with a fake clock: a
// version superseded by a newer registration is evicted once it sits
// write-idle past the TTL, while the latest version of every program —
// and a program that was never superseded — survive any amount of
// idleness.
func TestEvictRetiredVersions(t *testing.T) {
	p1 := compileBench(t, "compress")
	p2 := upgrade(p1)
	man1 := p1.BuildManifest("compress")
	man2 := p2.BuildManifest("compress")
	key1 := api.ProgramKey{Program: "compress", Version: man1.Version}
	key2 := api.ProgramKey{Program: "compress", Version: man2.Version}
	soleKey := api.ProgramKey{Program: "db", Version: "00000000000000db"}

	m := NewMulti(2)
	now := time.Unix(1_000_000, 0)
	m.SetClock(func() time.Time { return now })

	if _, _, err := m.RegisterManifest(man1); err != nil {
		t.Fatal(err)
	}
	m.For(key1).MergeDCGFrom("vm1", 1, dcgOf([4]int{1, 0, 2, 10}))
	m.For(soleKey).MergeDCGFrom("vm2", 1, dcgOf([4]int{1, 0, 2, 5}))

	// v2 ships: v1 is now retired, but a straggler keeps pushing to it.
	now = now.Add(time.Hour)
	if _, _, err := m.RegisterManifest(man2); err != nil {
		t.Fatal(err)
	}
	m.For(key1).MergeDCGFrom("vm1", 2, dcgOf([4]int{1, 0, 2, 1}))

	// The straggler's push just touched v1 — nothing is idle enough.
	if n := m.EvictRetired(30 * time.Minute); n != 0 {
		t.Fatalf("evicted %d substores while the retired version was still hot", n)
	}

	// An hour of silence later the retired version goes; the latest
	// version and the never-superseded program stay, however idle.
	now = now.Add(time.Hour)
	if n := m.EvictRetired(30 * time.Minute); n != 1 {
		t.Fatalf("evicted %d substores, want 1", n)
	}
	if m.Lookup(key1) != nil || m.Manifest(key1) != nil {
		t.Fatal("retired version still present after eviction")
	}
	if m.Lookup(key2) == nil || m.Manifest(key2) == nil {
		t.Fatal("latest version evicted")
	}
	if m.Lookup(soleKey) == nil {
		t.Fatal("sole (never superseded) version evicted")
	}
	if got := m.Evicted(); got != 1 {
		t.Fatalf("Evicted() = %d, want 1", got)
	}
	// Relayed manifest order no longer mentions the evicted build.
	for _, man := range m.ManifestsInOrder() {
		if man.Version == man1.Version {
			t.Fatal("evicted manifest still relayed upstream")
		}
	}
	// Repeat sweeps are no-ops.
	if n := m.EvictRetired(30 * time.Minute); n != 0 {
		t.Fatalf("second sweep evicted %d substores", n)
	}
}

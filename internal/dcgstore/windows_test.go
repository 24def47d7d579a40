package dcgstore

import (
	"encoding/binary"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bytecode"
	"gocbs/internal/plan"
	"gocbs/internal/profile"
)

// TestWindowsTravelWithTheGraph: a graph's window count — how many
// sampling windows filled it, what the plan compiler caps a site's
// evidence at — goes wherever its weights go: through Merge, DeltaSince,
// Clone, MapWeights and the wire; scaled by a decay, snapped by
// Condition to the grid its weights are snapped to; into a checkpoint and
// back, into a carried-forward graph and into the forwarder's state file.
// A graph in the wire format before the count decodes with none.
func TestWindowsTravelWithTheGraph(t *testing.T) {
	g := profile.NewDCG()
	g.AddSample(edge(0, 3, 1), 10)
	g.AddSample(edge(0, 3, 2), 6)
	g.SetWindows(2)
	more := profile.NewDCG()
	more.AddSample(edge(0, 3, 1), 16)
	more.SetWindows(1)
	sum := g.Clone()
	sum.Merge(more)
	check := func(what string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %v windows, want %v", what, got, want)
		}
	}
	check("Clone", g.Clone().Windows(), 2)
	check("Merge", sum.Windows(), 3)
	check("DeltaSince", sum.DeltaSince(g).Windows(), 1)
	check("DeltaSince(nil)", sum.DeltaSince(nil).Windows(), 3)
	check("DeltaSince a later graph", g.DeltaSince(sum).Windows(), 0)
	check("MapWeights", sum.MapWeights(func(_ profile.Edge, w float64) float64 { return w / 2 }).Windows(), 3)
	back, err := profile.DecodeDCGBytes(sum.Encode())
	if err != nil {
		t.Fatal(err)
	}
	check("Encode/DecodeDCGBytes", back.Windows(), 3)
	v2 := sum.Encode()
	v1 := append(append([]byte{}, v2[:16]...), v2[24:]...)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	if old, err := profile.DecodeDCGBytes(v1); err != nil || old.Windows() != 0 || old.Total() != sum.Total() {
		t.Errorf("version 1 bytes: %v, err %v; want %d edges of weight %v and no windows", old, err, sum.NumEdges(), sum.Total())
	}

	s := New()
	s.MergeDCG(sum)
	s.Decay(0.5, 0)
	check("Store.Decay(0.5)", s.Snapshot().Windows(), 1.5)

	// Condition puts the count on the grid an edge of that weight lands on.
	sum.SetWindows(13)
	heavy := profile.NewDCG()
	heavy.AddSample(edge(0, 3, 1), 13)
	snapped := plan.Condition(heavy, 1, 0.25).Weight(edge(0, 3, 1))
	if snapped == 13 {
		t.Fatal("13 is a grid point; the case tests nothing")
	}
	check("Condition", plan.Condition(sum, 1, 0.25).Windows(), snapped)
	check("Condition(g, 0, 0)", plan.Condition(sum, 0, 0).Windows(), 13)

	// A checkpoint, and a build carried forward from the one that holds sum.
	man := func(key api.ProgramKey) *bytecode.Manifest {
		return &bytecode.Manifest{Program: key.Program, Version: key.Version,
			Methods: []bytecode.MethodFingerprint{{Name: "$Globals.iter", Hash: 1}, {Name: "A.f", Hash: 2}, {Name: "B.f", Hash: 3}},
			Sites:   []bytecode.Site{{Owner: 0, PC: 1}, {Owner: 0, PC: 2}, {Owner: 0, PC: 3}, {Owner: 0, PC: 4}}}
	}
	a := api.ProgramKey{Program: "compress", Version: "00000000aaaaaaaa"}
	b := api.ProgramKey{Program: "compress", Version: "00000000bbbbbbbb"}
	m := NewMulti(4)
	if _, _, err := m.RegisterManifest(man(a)); err != nil {
		t.Fatal(err)
	}
	m.For(a).MergeDCGFrom("vm-1", 1, sum)
	if _, _, err := m.RegisterManifest(man(b)); err != nil {
		t.Fatal(err)
	}
	check("CarryForward", m.Carried(b).Windows(), 13)
	check("the carried-into build", m.Lookup(b).Snapshot().Windows(), 13)
	dir := t.TempDir()
	if err := SaveMultiCheckpoint(dir, m); err != nil {
		t.Fatal(err)
	}
	r := NewMulti(4)
	if ok, err := RestoreMultiCheckpoint(r, dir); !ok || err != nil {
		t.Fatalf("restore: %v, %v", ok, err)
	}
	check("checkpoint restore", r.Lookup(a).Snapshot().Windows(), 13)
	check("checkpoint restore, carried", r.Carried(b).Windows(), 13)

	// The forwarder's state file: what the root acknowledged, restored.
	root := newRootServer()
	ts := httptest.NewServer(root.handler(t))
	defer ts.Close()
	state := filepath.Join(t.TempDir(), "forward-state.json")
	fwd := goldenForwarder(t, m, ts.URL, state)
	if _, err := fwd.Flush(); err != nil {
		t.Fatal(err)
	}
	check("forwarded to the root", root.multi.Lookup(a).Snapshot().Windows(), 13)
	check("forwarder state", goldenForwarder(t, m, ts.URL, state).Acknowledged(a).Windows(), 13)
}

package dcgstore

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

const goldenStatePath = "testdata/forward-state.json"

var (
	goldenA = api.ProgramKey{Program: "compress", Version: "00000000aaaaaaaa"}
	goldenB = api.ProgramKey{Program: "compress", Version: "00000000bbbbbbbb"}
)

func goldenForwarder(t *testing.T, leaf *Multi, rootURL, statePath string) *Forwarder {
	t.Helper()
	fwd, err := NewForwarder(ForwarderConfig{
		ID: "leaf-golden", Upstream: fastUpstream(rootURL),
		Source:    leaf.Snapshots,
		Manifests: leaf.ManifestsInOrder,
		StatePath: statePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fwd
}

// goldenLeaf builds the leaf store the golden forwarder state was
// captured from. Phase 1 (acknowledged as seqs 1-2): weight on the
// unstamped stream and on build A, whose manifest is relayed. Phase 2
// (captured as seqs 3-5, never acknowledged): more weight on both, and
// a first capture for build B. Every push counts one sampling window.
func goldenLeaf(t *testing.T, phases int) *Multi {
	t.Helper()
	graph := func(c, s, e int, w float64) *profile.DCG {
		g := profile.NewDCG()
		g.AddSample(edge(c, s, e), w)
		g.SetWindows(1)
		return g
	}
	leaf := NewMulti(4)
	manA := &bytecode.Manifest{Program: goldenA.Program, Version: goldenA.Version,
		Methods: []bytecode.MethodFingerprint{{Name: "$Globals.iter", Hash: 1}},
		Sites:   []bytecode.Site{{Owner: 0, PC: 3}}}
	if _, _, err := leaf.RegisterManifest(manA); err != nil {
		t.Fatal(err)
	}
	leaf.For(api.ProgramKey{}).MergeDCGFrom("vm-0", 1, graph(5, 5, 6, 2))
	leaf.For(goldenA).MergeDCGFrom("vm-1", 1, graph(0, 3, 1, 10))
	if phases > 1 {
		leaf.For(api.ProgramKey{}).MergeDCGFrom("vm-0", 2, graph(5, 5, 7, 3))
		leaf.For(goldenA).MergeDCGFrom("vm-1", 2, graph(0, 3, 1, 5))
		leaf.For(goldenB).MergeDCGFrom("vm-2", 1, graph(0, 3, 2, 7))
	}
	return leaf
}

// writeGoldenState runs the golden scenario's two phases against a
// fresh root and returns the state file they leave: phase 1 flushes and
// is acknowledged, phase 2 captures behind a push the root fails.
func writeGoldenState(t *testing.T) []byte {
	t.Helper()
	root := newRootServer()
	ts := httptest.NewServer(root.handler(t))
	defer ts.Close()
	tmp := filepath.Join(t.TempDir(), "forward-state.json")
	if _, err := goldenForwarder(t, goldenLeaf(t, 1), ts.URL, tmp).Flush(); err != nil {
		t.Fatal(err)
	}
	root.failNext.Store(1)
	if resp, err := goldenForwarder(t, goldenLeaf(t, 2), ts.URL, tmp).Flush(); err == nil || resp.Pending != 3 {
		t.Fatalf("phase 2 flush: resp=%+v err=%v, want 3 pending behind a failed push", resp, err)
	}
	b, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenForwardState pins the forwarder's write-ahead file across
// commits. The committed state holds a baseline and an acked graph for
// the unstamped stream and for build A, a baseline only for build B,
// one relayed manifest, and three pending increments (one unstamped,
// two keyed). The golden scenario, replayed on a fresh path, writes the
// same bytes. A forwarder restored from the file rewrites it
// byte-identically, re-sends exactly the pending increments under
// their original seqs to their original streams, and ends with every
// stream's acknowledged graph equal to the leaf's.
func TestGoldenForwardState(t *testing.T) {
	written := writeGoldenState(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenStatePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStatePath, written, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	golden, err := os.ReadFile(goldenStatePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, golden) {
		t.Errorf("the golden scenario wrote a state file that differs from %s (%d vs %d bytes)", goldenStatePath, len(written), len(golden))
	}
	statePath := filepath.Join(t.TempDir(), "forward-state.json")
	if err := os.WriteFile(statePath, golden, 0o644); err != nil {
		t.Fatal(err)
	}

	// The root has already applied phase 1; record what arrives now.
	type arrival struct {
		seq uint64
		key api.ProgramKey
	}
	var (
		mu       sync.Mutex
		arrivals []arrival
	)
	root := newRootServer()
	inner := root.handler(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.PathIngest {
			seq, _ := strconv.ParseUint(r.Header.Get(api.HeaderSeq), 10, 64)
			mu.Lock()
			arrivals = append(arrivals, arrival{seq, api.ProgramKey{
				Program: r.Header.Get(api.HeaderProgram), Version: r.Header.Get(api.HeaderProgramVersion)}})
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	leaf := goldenLeaf(t, 2)
	fwd := goldenForwarder(t, leaf, ts.URL, statePath)
	if fwd.ID() != "leaf-golden" || fwd.Pending() != 3 {
		t.Fatalf("restored id %q with %d pending, want leaf-golden with 3", fwd.ID(), fwd.Pending())
	}
	fwd.mu.Lock()
	err = fwd.persistLocked()
	fwd.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if resaved, err := os.ReadFile(statePath); err != nil || !bytes.Equal(resaved, golden) {
		t.Errorf("restore-then-save changed the state file (%d vs %d bytes, err %v)", len(resaved), len(golden), err)
	}

	resp, err := fwd.Flush()
	if err != nil || !resp.Forwarded || resp.Edges != 0 || resp.Seq != 5 {
		t.Fatalf("flush after restore: resp=%+v err=%v, want nothing newly captured and seq 5", resp, err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []arrival{{3, api.ProgramKey{}}, {4, goldenA}, {5, goldenB}}
	if len(arrivals) != len(want) {
		t.Fatalf("root saw %v, want %v", arrivals, want)
	}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Errorf("arrival %d = %v, want %v", i, arrivals[i], want[i])
		}
	}
	for _, key := range []api.ProgramKey{{}, goldenA, goldenB} {
		mustEqualDCG(t, "acked "+key.String(), fwd.Acknowledged(key), leaf.Lookup(key).Snapshot())
	}
}

// editedState returns the state file saved with edit applied to it.
func editedState(t testing.TB, saved []byte, edit func(st *forwarderState)) []byte {
	t.Helper()
	var st forwarderState
	if err := json.Unmarshal(saved, &st); err != nil {
		t.Fatal(err)
	}
	edit(&st)
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// restoreForwarder builds a forwarder over the state file at path, with
// an upstream that is never called.
func restoreForwarder(id, path string) (*Forwarder, error) {
	return NewForwarder(ForwarderConfig{
		ID:        id,
		Upstream:  fastUpstream("http://127.0.0.1:1"),
		Source:    func() map[api.ProgramKey]*profile.DCG { return nil },
		StatePath: path,
	})
}

// savedState persists fwd's state and returns the file.
func savedState(t testing.TB, fwd *Forwarder) []byte {
	t.Helper()
	fwd.mu.Lock()
	err := fwd.persistLocked()
	fwd.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(fwd.statePath)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestForwarderRestoreRefusesUnresumableState: a state file the
// forwarder could not resume exactly stops it at restore. The golden
// file holds seq 5 and pending seqs 3, 4, 5 (zero key, build A, build
// B); each case breaks one thing in it.
func TestForwarderRestoreRefusesUnresumableState(t *testing.T) {
	golden, err := os.ReadFile(goldenStatePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		id   string
		edit func(st *forwarderState)
	}{
		// Seq 6 would be the next capture's, sent after 7, dropped by the
		// root as a duplicate, and counted as acknowledged.
		{"a pending seq above the counter", "", func(st *forwarderState) { st.Pending[2].Seq = 7 }},
		{"pending seqs out of order", "", func(st *forwarderState) { st.Pending[0].Seq, st.Pending[1].Seq = 4, 3 }},
		{"a gap in the pending seqs", "", func(st *forwarderState) { st.Pending = st.Pending[1:]; st.Pending[0].Seq = 3 }},
		{"a pending seq 0", "", func(st *forwarderState) { st.Seq, st.Pending[0].Seq, st.Pending[1].Seq, st.Pending[2].Seq = 2, 0, 1, 2 }},
		{"a counter below its pending seqs", "", func(st *forwarderState) { st.Seq = 4 }},
		{"a stream key a store refuses", "", func(st *forwarderState) { st.Keyed[0].Version = "NOT-HEX" }},
		{"a pending key a store refuses", "", func(st *forwarderState) { st.Pending[1].Program = "has space" }},
		{"a stream listed twice", "", func(st *forwarderState) { st.Keyed = append(st.Keyed, st.Keyed[0]) }},
		{"the zero key listed as keyed", "", func(st *forwarderState) { st.Keyed = append(st.Keyed, streamState{Last: st.Last}) }},
		{"a pending increment with no baseline", "", func(st *forwarderState) { st.Keyed = st.Keyed[:1] }},
		{"an acked graph with no baseline", "", func(st *forwarderState) { st.Last = nil }},
		{"a relayed manifest a store refuses", "", func(st *forwarderState) { st.SentManifests[0].Program = "" }},
		{"an id the root refuses, from the file", "", func(st *forwarderState) { st.ID = "leaf golden" }},
		{"an empty id in the file", "", func(st *forwarderState) { st.ID = "" }},
		{"an id the root refuses, from the config", "leaf golden", func(*forwarderState) {}},
		{"another leaf's file", "leaf-other", func(*forwarderState) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "forward-state.json")
			if err := os.WriteFile(path, editedState(t, golden, tc.edit), 0o644); err != nil {
				t.Fatal(err)
			}
			fwd, err := restoreForwarder(tc.id, path)
			if err == nil {
				t.Fatalf("restored with %d pending, want a refusal", fwd.Pending())
			}
			t.Logf("refused: %v", err)
		})
	}
	path := filepath.Join(t.TempDir(), "forward-state.json")
	if fwd, err := restoreForwarder("leaf golden", path); err == nil {
		t.Fatalf("a fresh forwarder took the id %q", fwd.ID())
	}
	if err := os.WriteFile(path, editedState(t, golden, func(*forwarderState) {}), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := restoreForwarder("leaf-golden", path); err != nil {
		t.Fatalf("the unedited golden state: %v", err)
	}
}

// FuzzRestoreForwardState: whatever forward-state.json holds, a restore
// never panics, and what it accepts saves, restores and saves again to
// the same bytes, with the same identity and pending increments.
func FuzzRestoreForwardState(f *testing.F) {
	golden, err := os.ReadFile(goldenStatePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, n := range []int{0, 1, len(golden) / 3, len(golden) - 1} {
		f.Add(golden[:n])
	}
	f.Add(editedState(f, golden, func(st *forwarderState) { st.Pending[2].Seq = 7 }))
	f.Add(editedState(f, golden, func(st *forwarderState) { st.Keyed = append(st.Keyed, st.Keyed[0]) }))
	f.Add(editedState(f, golden, func(st *forwarderState) { st.ID = "no such\nid" }))
	f.Add(editedState(f, golden, func(st *forwarderState) { st.Pending, st.Keyed = nil, nil }))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "forward-state.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fwd, err := restoreForwarder("", path)
		if err != nil {
			return
		}
		saved := savedState(t, fwd)
		again, err := restoreForwarder("", path)
		if err != nil {
			t.Fatalf("refused the state it saved: %v\n%s", err, saved)
		}
		if again.ID() != fwd.ID() || again.Pending() != fwd.Pending() {
			t.Fatalf("restored %q with %d pending, saved %q with %d", again.ID(), again.Pending(), fwd.ID(), fwd.Pending())
		}
		if resaved := savedState(t, again); !bytes.Equal(resaved, saved) {
			t.Fatalf("a restored state saved\n     %s\nand, restored and saved again,\n     %s", saved, resaved)
		}
	})
}

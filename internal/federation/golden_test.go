package federation

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bytecode"
	"gocbs/internal/dcgstore"
	"gocbs/internal/profile"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/forward-state.json from the golden scenario")

const goldenStatePath = "testdata/forward-state.json"

var (
	goldenA = api.ProgramKey{Program: "compress", Version: "00000000aaaaaaaa"}
	goldenB = api.ProgramKey{Program: "compress", Version: "00000000bbbbbbbb"}
)

func goldenForwarder(t *testing.T, leaf *dcgstore.Multi, rootURL, statePath string) *Forwarder {
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
func goldenLeaf(t *testing.T, phases int) *dcgstore.Multi {
	t.Helper()
	graph := func(c, s, e int, w float64) *profile.DCG {
		g := profile.NewDCG()
		g.AddSample(edge(c, s, e), w)
		g.SetWindows(1)
		return g
	}
	leaf := dcgstore.NewMulti(4)
	manA := &bytecode.Manifest{Program: goldenA.Program, Version: goldenA.Version,
		Methods: []bytecode.MethodFingerprint{{Name: "$Globals.iter", Hash: 1}},
		Sites:   []bytecode.SiteFingerprint{{Owner: 0, PC: 3}}}
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

// TestGoldenForwardState pins the forwarder's write-ahead file across
// commits. The committed state holds a baseline and an acked graph for
// the unstamped stream and for build A, a baseline only for build B,
// one relayed manifest, and three pending increments (one unstamped,
// two keyed). A forwarder restored from it rewrites the file
// byte-identically, re-sends exactly the pending increments under
// their original seqs to their original streams, and ends with every
// stream's acknowledged graph equal to the leaf's.
func TestGoldenForwardState(t *testing.T) {
	if *updateGolden {
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
		if err := os.MkdirAll(filepath.Dir(goldenStatePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStatePath, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	golden, err := os.ReadFile(goldenStatePath)
	if err != nil {
		t.Fatal(err)
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

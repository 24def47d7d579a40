package dcgstore

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

// rootServer is a minimal root daemon: the sequenced ingest path over
// a store family, with test-controlled fault injection. Using the
// store's real MergeDCGFrom keeps the dedup semantics honest without
// importing internal/daemon (which imports this package).
type rootServer struct {
	// multi is the full per-build ledger; store is the zero key's
	// substore, where the single-stream tests' weight lands.
	store *Store
	multi *Multi
	// failNext, when > 0, answers that many requests with a 500
	// WITHOUT applying them.
	failNext atomic.Int32
	// dropNext, when > 0, APPLIES that many requests but kills the
	// connection before the response — the lost-ack hazard.
	dropNext atomic.Int32
}

func newRootServer() *rootServer {
	multi := NewMulti(8)
	return &rootServer{store: multi.Lookup(api.ProgramKey{}), multi: multi}
}

func (rs *rootServer) handler(t testing.TB) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rs.failNext.Load() > 0 {
			rs.failNext.Add(-1)
			api.WriteError(w, http.StatusInternalServerError, api.CodeInternal, "injected")
			return
		}
		if r.URL.Path == api.PathManifest {
			man, err := bytecode.DecodeManifest(r.Body)
			if err != nil {
				t.Errorf("root: bad manifest: %v", err)
				api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
				return
			}
			edges, weight, err := rs.multi.RegisterManifest(man)
			if err != nil {
				api.WriteError(w, http.StatusServiceUnavailable, api.CodeCapacity, err.Error())
				return
			}
			fmt.Fprintf(w, `{"registered":true,"carried_edges":%d,"carried_weight":%g}`, edges, weight)
			return
		}
		if r.URL.Path != api.PathIngest {
			t.Errorf("root saw unexpected path %q", r.URL.Path)
		}
		g, err := profile.ReadDCG(r.Body)
		if err != nil {
			t.Errorf("root: bad payload: %v", err)
			api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
			return
		}
		var seq uint64
		pusher := r.Header.Get(api.HeaderPusher)
		if pusher != "" {
			if seq, err = strconv.ParseUint(r.Header.Get(api.HeaderSeq), 10, 64); err != nil {
				t.Errorf("root: bad seq: %v", err)
			}
		}
		dest := rs.multi.For(api.ProgramKey{
			Program: r.Header.Get(api.HeaderProgram), Version: r.Header.Get(api.HeaderProgramVersion)})
		if dest == nil {
			api.WriteError(w, http.StatusServiceUnavailable, api.CodeCapacity, "ledger full")
			return
		}
		applied := dest.MergeDCGFrom(pusher, seq, g)
		if rs.dropNext.Load() > 0 {
			rs.dropNext.Add(-1)
			panic(http.ErrAbortHandler)
		}
		fmt.Fprintf(w, `{"applied":%v,"duplicate":%v}`, applied, !applied)
	})
}

// newLeafStore returns a leaf store family and its zero-key substore,
// for tests that drive a single unstamped stream.
func newLeafStore() (*Multi, *Store) {
	leaf := NewMulti(4)
	return leaf, leaf.Lookup(api.ProgramKey{})
}

// fastUpstream returns a client for the root with no retries (tests
// drive every attempt explicitly).
func fastUpstream(url string) *Client {
	return &Client{BaseURL: url, Retries: -1}
}

func mustEqualDCG(t *testing.T, label string, got, want *profile.DCG) {
	t.Helper()
	var gb, wb bytes.Buffer
	if _, err := got.WriteTo(&gb); err != nil {
		t.Fatal(err)
	}
	if _, err := want.WriteTo(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Errorf("%s: graphs differ: %d edges/%v weight vs %d edges/%v weight",
			label, got.NumEdges(), got.Total(), want.NumEdges(), want.Total())
	}
}

// TestReRoutedPusherDoesNotDoubleCountAtRoot is the second half of the
// satellite property test: a pusher that drains at its old leaf and
// then continues its stream at a new leaf contributes its graph to the
// root exactly once, even though the two leaves forward under separate
// upstream identities.
func TestReRoutedPusherDoesNotDoubleCountAtRoot(t *testing.T) {
	root := newRootServer()
	ts := httptest.NewServer(root.handler(t))
	defer ts.Close()

	newLeaf := func(id string) (*Store, *Forwarder) {
		leaf, store := newLeafStore()
		f, err := NewForwarder(ForwarderConfig{
			ID:       id,
			Upstream: fastUpstream(ts.URL),
			Source:   leaf.Snapshots,
		})
		if err != nil {
			t.Fatal(err)
		}
		return store, f
	}
	leafA, fwdA := newLeaf("leaf-a")
	leafB, fwdB := newLeaf("leaf-b")

	// The pusher's source graph grows monotonically; it streams deltas
	// to whichever leaf currently owns its program.
	src := profile.NewDCG()
	push := func(store *Store, seq uint64, delta *profile.DCG) {
		if !store.MergeDCGFrom("vm-1", seq, delta.Clone()) {
			t.Fatalf("leaf rejected seq %d as duplicate", seq)
		}
	}

	// Rounds 1-2 land on leaf A and are forwarded up.
	d1 := profile.NewDCG()
	d1.AddSample(edge(1, 1, 2), 10)
	src.Merge(d1)
	push(leafA, 1, d1)
	d2 := profile.NewDCG()
	d2.AddSample(edge(1, 1, 2), 5)
	d2.AddSample(edge(2, 3, 4), 7)
	src.Merge(d2)
	push(leafA, 2, d2)
	if _, err := fwdA.Flush(); err != nil {
		t.Fatalf("leaf A flush: %v", err)
	}

	// Re-route: the pusher drains at leaf A (everything above is
	// acknowledged — the drain-before-switch rule), then resumes its
	// sequence stream at leaf B. The same seq-3 increment retried at
	// leaf B after a lost response dedups in LEAF B's store; leaf A
	// never sees it, so the root cannot see it twice.
	d3 := profile.NewDCG()
	d3.AddSample(edge(2, 3, 4), 3)
	src.Merge(d3)
	push(leafB, 3, d3)
	if leafB.MergeDCGFrom("vm-1", 3, d3.Clone()) {
		t.Fatal("leaf B applied a duplicate of seq 3")
	}
	if _, err := fwdB.Flush(); err != nil {
		t.Fatalf("leaf B flush: %v", err)
	}
	// Leaf A flushes again after the switch: it has nothing new for
	// this pusher, so the root gains no weight from it.
	if _, err := fwdA.Flush(); err != nil {
		t.Fatalf("leaf A post-switch flush: %v", err)
	}

	mustEqualDCG(t, "root vs pusher source", root.store.Snapshot(), src)
	// And the composition invariant: root == merge of the two leaves'
	// acknowledged graphs.
	comp := fwdA.Acknowledged(api.ProgramKey{})
	comp.Merge(fwdB.Acknowledged(api.ProgramKey{}))
	mustEqualDCG(t, "root vs leaf acks", root.store.Snapshot(), comp)
}

// TestForwarderRestartExactness: a forwarder that dies after the root
// applied an increment but before the ack landed re-sends the frozen
// increment from its write-ahead state on restart, and the root
// deduplicates — byte-identical totals, no loss, no double count.
func TestForwarderRestartExactness(t *testing.T) {
	root := newRootServer()
	ts := httptest.NewServer(root.handler(t))
	defer ts.Close()

	statePath := filepath.Join(t.TempDir(), "fwd-state.json")
	leaf, store := newLeafStore()
	fwd, err := NewForwarder(ForwarderConfig{
		ID: "leaf-0", Upstream: fastUpstream(ts.URL), Source: leaf.Snapshots, StatePath: statePath,
	})
	if err != nil {
		t.Fatal(err)
	}

	g1 := profile.NewDCG()
	g1.AddSample(edge(1, 2, 3), 4)
	store.MergeDCGFrom("vm-1", 1, g1)
	if resp, err := fwd.Flush(); err != nil || !resp.Forwarded || resp.Seq != 1 {
		t.Fatalf("first flush: resp=%+v err=%v", resp, err)
	}

	// More weight arrives; the root applies the forward but the ack is
	// lost mid-flight (connection killed after merge).
	g2 := profile.NewDCG()
	g2.AddSample(edge(1, 2, 3), 6)
	g2.AddSample(edge(9, 9, 9), 1)
	store.MergeDCGFrom("vm-1", 2, g2)
	root.dropNext.Store(1)
	resp, err := fwd.Flush()
	if err == nil {
		t.Fatal("flush with dropped ack must error")
	}
	if resp.Pending != 1 || resp.Seq != 1 {
		t.Fatalf("post-drop resp = %+v, want 1 pending above seq 1", resp)
	}

	// "Crash": rebuild the forwarder from the write-ahead state alone.
	fwd2, err := NewForwarder(ForwarderConfig{
		ID: "leaf-0", Upstream: fastUpstream(ts.URL), Source: leaf.Snapshots, StatePath: statePath,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if fwd2.Pending() != 1 {
		t.Fatalf("restarted forwarder has %d pending, want 1", fwd2.Pending())
	}
	if resp, err := fwd2.Flush(); err != nil || !resp.Forwarded || resp.Seq != 2 {
		t.Fatalf("post-restart flush: resp=%+v err=%v", resp, err)
	}

	// The re-sent increment was deduplicated, not re-merged.
	if d := root.store.Stats().Duplicates; d != 1 {
		t.Errorf("root deduplicated %d increments, want 1", d)
	}
	mustEqualDCG(t, "root vs leaf store", root.store.Snapshot(), store.Snapshot())
	mustEqualDCG(t, "root vs restarted acked", root.store.Snapshot(), fwd2.Acknowledged(api.ProgramKey{}))

	// A third restart starts clean: nothing pending, and a flush with
	// no new weight pushes nothing.
	fwd3, err := NewForwarder(ForwarderConfig{
		ID: "leaf-0", Upstream: fastUpstream(ts.URL), Source: leaf.Snapshots, StatePath: statePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := fwd3.Flush(); err != nil || !resp.Forwarded || resp.Edges != 0 || resp.Seq != 2 {
		t.Fatalf("idle flush after clean restart: resp=%+v err=%v", resp, err)
	}
}

// TestForwarderPersistFailureConservesWeight: a capture whose
// write-ahead persist fails is rolled back to the PRIOR baseline, so
// the next flush re-captures the same delta — not the whole store. The
// regression this pins: rolling back to a nil baseline made the next
// flush send the full snapshot under a new seq, re-counting weight the
// root had already acknowledged under earlier sequence numbers. Every
// stream rolls back the same way, whichever key it is under and whether
// or not it had a baseline before the failed capture.
func TestForwarderPersistFailureConservesWeight(t *testing.T) {
	kA := api.ProgramKey{Program: "compress", Version: "00000000aaaaaaaa"}
	kB := api.ProgramKey{Program: "compress", Version: "00000000bbbbbbbb"}
	for _, tc := range []struct {
		name string
		// acked is the stream whose first 10 units the root acknowledges
		// as seq 1; failed the stream that then grows by 5 while the
		// state dir is gone.
		acked, failed api.ProgramKey
	}{
		{"zero key", api.ProgramKey{}, api.ProgramKey{}},
		{"keyed with a prior baseline", kA, kA},
		{"keyed first capture", api.ProgramKey{}, kB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := newRootServer()
			ts := httptest.NewServer(root.handler(t))
			defer ts.Close()

			stateDir := filepath.Join(t.TempDir(), "state")
			if err := os.MkdirAll(stateDir, 0o755); err != nil {
				t.Fatal(err)
			}
			leaf := NewMulti(4)
			fwd, err := NewForwarder(ForwarderConfig{
				ID:        "leaf-0",
				Upstream:  fastUpstream(ts.URL),
				Source:    leaf.Snapshots,
				StatePath: filepath.Join(stateDir, "fwd-state.json"),
			})
			if err != nil {
				t.Fatal(err)
			}

			// Seq 1 forwards and acks 10 weight.
			g1 := profile.NewDCG()
			g1.AddSample(edge(1, 2, 3), 10)
			leaf.For(tc.acked).MergeDCGFrom("vm-1", 1, g1)
			if resp, err := fwd.Flush(); err != nil || !resp.Forwarded || resp.Seq != 1 {
				t.Fatalf("first flush: resp=%+v err=%v", resp, err)
			}

			// The leaf grows by 5, and persisting the next capture fails
			// (the state directory is gone, so the temp-file create fails).
			g2 := profile.NewDCG()
			g2.AddSample(edge(1, 2, 3), 5)
			leaf.For(tc.failed).MergeDCGFrom("vm-2", 1, g2)
			if err := os.RemoveAll(stateDir); err != nil {
				t.Fatal(err)
			}
			if _, err := fwd.Flush(); err == nil {
				t.Fatal("flush with a failing persist must error")
			}
			if p := fwd.Pending(); p != 0 {
				t.Fatalf("rolled-back capture left %d pending, want 0", p)
			}

			// Persistence recovers; the next flush must forward ONLY the
			// 5-unit delta (as seq 2), never re-send the acknowledged 10.
			if err := os.MkdirAll(stateDir, 0o755); err != nil {
				t.Fatal(err)
			}
			resp, err := fwd.Flush()
			if err != nil || !resp.Forwarded || resp.Seq != 2 {
				t.Fatalf("recovery flush: resp=%+v err=%v", resp, err)
			}
			if resp.Weight != 5 {
				t.Errorf("recovery flush captured %v weight, want exactly the 5-unit delta", resp.Weight)
			}
			for _, key := range []api.ProgramKey{tc.acked, tc.failed} {
				mustEqualDCG(t, "root vs leaf "+key.String(), root.multi.Lookup(key).Snapshot(), leaf.Lookup(key).Snapshot())
				mustEqualDCG(t, "acked vs leaf "+key.String(), fwd.Acknowledged(key), leaf.Lookup(key).Snapshot())
			}
			if got, want := root.multi.Stats().TotalWeight, leaf.Stats().TotalWeight; got != want {
				t.Errorf("root holds %v weight, leaf holds %v — conservation violated", got, want)
			}
			if d := root.multi.Stats().Duplicates; d != 0 {
				t.Errorf("root saw %d duplicates, want 0", d)
			}
		})
	}
}

// TestForwarderTransientUpstreamFailure: a 500 from the root keeps the
// increment pending (nothing applied), and the next flush delivers it
// plus newer weight without gaps.
func TestForwarderTransientUpstreamFailure(t *testing.T) {
	root := newRootServer()
	ts := httptest.NewServer(root.handler(t))
	defer ts.Close()

	leaf, store := newLeafStore()
	fwd, err := NewForwarder(ForwarderConfig{
		ID: "leaf-0", Upstream: fastUpstream(ts.URL), Source: leaf.Snapshots,
	})
	if err != nil {
		t.Fatal(err)
	}

	g := profile.NewDCG()
	g.AddSample(edge(1, 1, 1), 2)
	store.MergeDCGFrom("vm-1", 1, g)
	root.failNext.Store(1)
	if _, err := fwd.Flush(); err == nil {
		t.Fatal("flush against failing root must error")
	}
	if fwd.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", fwd.Pending())
	}

	g2 := profile.NewDCG()
	g2.AddSample(edge(2, 2, 2), 3)
	store.MergeDCGFrom("vm-1", 2, g2)
	if resp, err := fwd.Flush(); err != nil || !resp.Forwarded || resp.Seq != 2 {
		t.Fatalf("recovery flush: resp=%+v err=%v", resp, err)
	}
	mustEqualDCG(t, "root vs leaf store", root.store.Snapshot(), store.Snapshot())
	if d := root.store.Stats().Duplicates; d != 0 {
		t.Errorf("root saw %d duplicates, want 0 (500 must not apply)", d)
	}
}

// TestForwarderRelaysKeyedBuildsAndManifests: a leaf whose store holds
// per-(program, version) substores and registered manifests forwards
// all of it — manifests first, in registration order, then each keyed
// stream — and the root reconstructs the same per-build ledger. A
// restart from the write-ahead state neither loses nor re-counts any
// keyed weight, and re-relayed manifests are idempotent at the root.
func TestForwarderRelaysKeyedBuildsAndManifests(t *testing.T) {
	root := newRootServer()
	ts := httptest.NewServer(root.handler(t))
	defer ts.Close()

	leaf := NewMulti(4)
	kA := api.ProgramKey{Program: "compress", Version: "00000000aaaaaaaa"}
	kB := api.ProgramKey{Program: "compress", Version: "00000000bbbbbbbb"}
	manA := &bytecode.Manifest{Program: kA.Program, Version: kA.Version,
		Methods: []bytecode.MethodFingerprint{{Name: "$Globals.iter", Hash: 1}},
		Sites:   []bytecode.Site{{Owner: 0, PC: 3}}}
	if _, _, err := leaf.RegisterManifest(manA); err != nil {
		t.Fatal(err)
	}
	gDef := profile.NewDCG()
	gDef.AddSample(edge(5, 5, 6), 2)
	leaf.For(api.ProgramKey{}).MergeDCGFrom("vm-0", 1, gDef)
	gA := profile.NewDCG()
	gA.AddSample(edge(0, 3, 1), 10)
	leaf.For(kA).MergeDCGFrom("vm-1", 1, gA)

	statePath := filepath.Join(t.TempDir(), "fwd-state.json")
	mkFwd := func() *Forwarder {
		t.Helper()
		fwd, err := NewForwarder(ForwarderConfig{
			ID: "leaf-0", Upstream: fastUpstream(ts.URL),
			Source:    leaf.Snapshots,
			Manifests: leaf.ManifestsInOrder,
			StatePath: statePath,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fwd
	}

	fwd := mkFwd()
	if resp, err := fwd.Flush(); err != nil || !resp.Forwarded {
		t.Fatalf("first flush: resp=%+v err=%v", resp, err)
	}
	if root.multi.Manifest(kA) == nil {
		t.Fatal("manifest A not relayed to root")
	}
	if root.multi.Lookup(kA) == nil {
		t.Fatal("root has no substore for build A")
	}
	mustEqualDCG(t, "root build A", root.multi.Lookup(kA).Snapshot(), gA)
	mustEqualDCG(t, "root default", root.store.Snapshot(), gDef)

	// A second build appears at the leaf (manifest + data), plus more
	// weight on the first: one flush relays the new manifest and both
	// keyed deltas.
	manB := &bytecode.Manifest{Program: kB.Program, Version: kB.Version,
		Methods: []bytecode.MethodFingerprint{{Name: "$Globals.iter", Hash: 2}},
		Sites:   []bytecode.Site{{Owner: 0, PC: 3}}}
	if _, _, err := leaf.RegisterManifest(manB); err != nil {
		t.Fatal(err)
	}
	gB := profile.NewDCG()
	gB.AddSample(edge(0, 3, 2), 7)
	leaf.For(kB).MergeDCGFrom("vm-2", 1, gB)
	more := profile.NewDCG()
	more.AddSample(edge(0, 3, 1), 5)
	leaf.For(kA).MergeDCGFrom("vm-1", 2, more)
	if resp, err := fwd.Flush(); err != nil || !resp.Forwarded {
		t.Fatalf("second flush: resp=%+v err=%v", resp, err)
	}
	if root.multi.Manifest(kB) == nil {
		t.Fatal("manifest B not relayed to root")
	}
	mustEqualDCG(t, "root build A after growth", root.multi.Lookup(kA).Snapshot(), leaf.Lookup(kA).Snapshot())
	mustEqualDCG(t, "root build B", root.multi.Lookup(kB).Snapshot(), leaf.Lookup(kB).Snapshot())
	mustEqualDCG(t, "acked keyed A", fwd.Acknowledged(kA), leaf.Lookup(kA).Snapshot())
	mustEqualDCG(t, "acked keyed B", fwd.Acknowledged(kB), leaf.Lookup(kB).Snapshot())
	// The heartbeat and /metrics figures count every stream, not just
	// the zero key's.
	want := leaf.Stats()
	if st := fwd.Status(""); st.Edges != want.Edges || st.Weight != want.TotalWeight {
		t.Errorf("status reports %d edges / %v weight, leaf holds %d / %v", st.Edges, st.Weight, want.Edges, want.TotalWeight)
	}
	if m := fwd.Metrics(); m.AckEdges != want.Edges || m.AckWeight != want.TotalWeight {
		t.Errorf("metrics report %d edges / %v weight, leaf holds %d / %v", m.AckEdges, m.AckWeight, want.Edges, want.TotalWeight)
	}

	// Restart from the write-ahead state: nothing pending, an idle
	// flush moves nothing, and the keyed ledgers still agree — the
	// restarted forwarder re-relays no manifest and re-counts no edge.
	fwd2 := mkFwd()
	if fwd2.Pending() != 0 {
		t.Fatalf("restarted forwarder has %d pending, want 0", fwd2.Pending())
	}
	if resp, err := fwd2.Flush(); err != nil || resp.Edges != 0 {
		t.Fatalf("idle flush after restart: resp=%+v err=%v", resp, err)
	}
	mustEqualDCG(t, "root build A after restart", root.multi.Lookup(kA).Snapshot(), leaf.Lookup(kA).Snapshot())
	mustEqualDCG(t, "root build B after restart", root.multi.Lookup(kB).Snapshot(), leaf.Lookup(kB).Snapshot())
	mustEqualDCG(t, "acked keyed A after restart", fwd2.Acknowledged(kA), leaf.Lookup(kA).Snapshot())
}

package dcgstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

// eachStream runs a checkpoint case once for the zero key and once for
// a build: there is one save path and one restore path, and every
// behaviour below holds for both.
func eachStream(t *testing.T, run func(t *testing.T, key api.ProgramKey)) {
	t.Run("zero key", func(t *testing.T) { run(t, api.ProgramKey{}) })
	t.Run("build", func(t *testing.T) { run(t, goldenV1) })
}

func mustSave(t *testing.T, dir string, m *Multi) {
	t.Helper()
	if err := SaveMultiCheckpoint(dir, m); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTripIsByteIdentical(t *testing.T) {
	eachStream(t, func(t *testing.T, key api.ProgramKey) {
		dir := t.TempDir()
		m := NewMulti(8)
		s := m.For(key)
		inc := profile.NewDCG()
		inc.AddSample(edge(1, 2, 3), 4.5)
		inc.AddSample(edge(7, 8, 9), 0.25)
		s.MergeDCGFrom("p-a", 3, inc)
		s.MergeDCGFrom("p-b", 11, inc)
		mergeEdge(s, edge(5, 5, 5), 2) // unsequenced weight persists too
		mustSave(t, dir, m)

		// A restarted store restored from the checkpoint serves the same
		// snapshot and keeps deduplicating the old pushers' retries.
		fresh := NewMulti(8)
		loaded, err := RestoreMultiCheckpoint(fresh, dir)
		if err != nil || !loaded {
			t.Fatalf("RestoreMultiCheckpoint = %v, %v", loaded, err)
		}
		r := fresh.Lookup(key)
		if r == nil {
			t.Fatal("restored Multi has no substore for the key")
		}
		if !bytes.Equal(dcgBytesOf(t, r.Snapshot()), dcgBytesOf(t, s.Snapshot())) {
			t.Error("restored snapshot is not byte-identical to the checkpointed one")
		}
		if got := r.Stats().Pushers; got != 2 {
			t.Errorf("restored %d sequence streams, want p-a and p-b", got)
		}
		if r.MergeDCGFrom("p-a", 3, inc) || r.MergeDCGFrom("p-b", 11, inc) {
			t.Error("retry of a pre-restart increment was applied after restore")
		}
		if !r.MergeDCGFrom("p-a", 4, inc) {
			t.Error("next increment after restore rejected")
		}
	})
}

func TestRestoreMissingCheckpointIsFreshStart(t *testing.T) {
	m := NewMulti(4)
	loaded, err := RestoreMultiCheckpoint(m, filepath.Join(t.TempDir(), "never-written"))
	if loaded || err != nil {
		t.Errorf("restore(missing) = %v, %v; want false, nil", loaded, err)
	}
	if st := m.Stats(); st.Edges != 0 || st.Pushers != 0 || m.NumKeys() != 0 {
		t.Errorf("fresh start is not empty: %+v, %d builds", st, m.NumKeys())
	}
}

// TestRestoreRejectsCorruptFiles: a checkpoint that is wrong anywhere —
// in either stream's element or around them — fails loudly, names the
// file, and loads nothing: not the elements before the bad one, not the
// succession table.
func TestRestoreRejectsCorruptFiles(t *testing.T) {
	eachStream(t, func(t *testing.T, key api.ProgramKey) {
		saved := checkpointBytes(t, goldenMulti(t, true))
		// Each case edits the decoded envelope; cs is the stream's element.
		cases := map[string]func(cp *checkpoint, cs *checkpointStore){
			"graph is not a DCG":   func(_ *checkpoint, cs *checkpointStore) { cs.Graph = []byte("not a DCG") },
			"graph is truncated":   func(_ *checkpoint, cs *checkpointStore) { cs.Graph = cs.Graph[:len(cs.Graph)-3] },
			"no graph":             func(_ *checkpoint, cs *checkpointStore) { cs.Graph = nil },
			"bad pusher id":        func(_ *checkpoint, cs *checkpointStore) { cs.Marks["two words"] = 1 },
			"carried is not a DCG": func(_ *checkpoint, cs *checkpointStore) { cs.Carried = []byte("DCGB?") },
			"manifest is not one":  func(_ *checkpoint, cs *checkpointStore) { cs.Manifest = json.RawMessage(`{"methods":7}`) },
			"manifest of another build": func(_ *checkpoint, cs *checkpointStore) {
				cs.Manifest = (&bytecode.Manifest{Program: "compress", Version: "00000000000000ff"}).Encode()
			},
			"bad program":                       func(_ *checkpoint, cs *checkpointStore) { cs.Program = "a/b" },
			"bad version":                       func(_ *checkpoint, cs *checkpointStore) { cs.Version = "not hex" },
			"listed twice":                      listedTwice,
			"bad succession":                    func(cp *checkpoint, _ *checkpointStore) { cp.Latest["compress"] = "not hex" },
			"unnamed program":                   func(cp *checkpoint, _ *checkpointStore) { cp.Latest[""] = goldenV1.Version },
			"more builds than the ledger holds": overfull,
		}
		files := map[string][]byte{"garbage": []byte("garbage"), "cut short": saved[:len(saved)/2], "empty": nil}
		for name, edit := range cases {
			files[name] = edited(t, saved, key, edit)
		}
		for name, data := range files {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, CheckpointFile), data, 0o644); err != nil {
				t.Fatal(err)
			}
			r := NewMulti(4)
			_, err := RestoreMultiCheckpoint(r, dir)
			if err == nil {
				t.Errorf("%s: loaded without error", name)
			} else if !strings.Contains(err.Error(), CheckpointFile) {
				t.Errorf("%s: error %q does not name %s", name, err, CheckpointFile)
			}
			if st := r.Stats(); st.Edges != 0 || st.Pushers != 0 || r.NumKeys() != 0 || r.LatestVersion("compress") != "" {
				t.Errorf("%s: the refused checkpoint left %d edges, %d marks, %d builds behind", name, st.Edges, st.Pushers, r.NumKeys())
			}
		}
	})
}

// TestRestoreRefusesEarlierLayout: a state dir that holds the files of
// the many-file checkpoint and no checkpoint.json is not a fresh start —
// a daemon that took it for one would checkpoint an empty store beside
// the history it could not read.
func TestRestoreRefusesEarlierLayout(t *testing.T) {
	for _, old := range []string{"versions.json", "store.dcgb"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, old), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if ok, err := RestoreMultiCheckpoint(NewMulti(4), dir); ok || err == nil || !strings.Contains(err.Error(), old) {
			t.Errorf("a dir holding only %s restored as %v, %v; want an error naming the file", old, ok, err)
		}
		// Beside a checkpoint.json they are somebody's leftovers.
		mustSave(t, dir, goldenMulti(t, true))
		if ok, err := RestoreMultiCheckpoint(NewMulti(4), dir); !ok || err != nil {
			t.Errorf("%s beside a checkpoint: restore = %v, %v", old, ok, err)
		}
	}
}

func TestSaveCheckpointReplacesAtomically(t *testing.T) {
	eachStream(t, func(t *testing.T, key api.ProgramKey) {
		dir := t.TempDir()
		m := NewMulti(4)
		mergeEdge(m.For(key), edge(1, 1, 1), 1)
		mustSave(t, dir, m)
		mergeEdge(m.For(key), edge(2, 2, 2), 2)
		mustSave(t, dir, m)
		fresh := NewMulti(4)
		if _, err := RestoreMultiCheckpoint(fresh, dir); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dcgBytesOf(t, fresh.Lookup(key).Snapshot()), dcgBytesOf(t, m.Lookup(key).Snapshot())) {
			t.Error("second checkpoint did not replace the first")
		}
		mustHoldOnly(t, dir, CheckpointFile)
	})
}

// mustHoldOnly asserts dir holds exactly the named files: a checkpoint
// is one file and leaves no temp droppings.
func mustHoldOnly(t *testing.T, dir string, names ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	slices.Sort(names)
	if !slices.Equal(got, names) {
		t.Errorf("state dir holds %v, want %v", got, names)
	}
}

// checkpointBytes returns the checkpoint file m saves.
func checkpointBytes(t testing.TB, m *Multi) []byte {
	t.Helper()
	dir := t.TempDir()
	if err := SaveMultiCheckpoint(dir, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// edited returns the checkpoint file saved after edit has had its way
// with the decoded envelope and with key's element of it.
func edited(t testing.TB, saved []byte, key api.ProgramKey, edit func(cp *checkpoint, cs *checkpointStore)) []byte {
	t.Helper()
	var cp checkpoint
	if err := json.Unmarshal(saved, &cp); err != nil {
		t.Fatal(err)
	}
	for i := range cp.Stores {
		if cp.Stores[i].Program == key.Program && cp.Stores[i].Version == key.Version {
			edit(&cp, &cp.Stores[i])
			break
		}
	}
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// listedTwice and overfull are two edits both the corrupt-file test and
// the fuzz corpus want.
func listedTwice(cp *checkpoint, cs *checkpointStore) { cp.Stores = append(cp.Stores, *cs) }

func overfull(cp *checkpoint, cs *checkpointStore) {
	for i := 0; i <= MaxProgramKeys; i++ {
		cp.Stores = append(cp.Stores, checkpointStore{Program: "p", Version: fmt.Sprintf("%x", i), Graph: cs.Graph})
	}
}

// TestCheckpointDropsEvictedBuildFiles: eviction reaches the state dir.
// The next checkpoint has no element for an evicted build, and when a
// straggler re-creates an evicted key cold, the manifest and carried
// graph of its earlier life do not come back on restart — Carried(key)
// must never report a graph the substore did not merge (snapshot ==
// carried + Σ acked).
func TestCheckpointDropsEvictedBuildFiles(t *testing.T) {
	dir := t.TempDir()
	keys := []api.ProgramKey{goldenV1, goldenV2, {Program: "compress", Version: "00000000000000a3"}}
	m := NewMulti(4)
	now := time.Unix(1_000_000, 0)
	m.SetClock(func() time.Time { return now })
	for i, key := range keys {
		// Only the entry method changes build to build, so the edge
		// between the other two carries forward each time.
		man := &bytecode.Manifest{Program: key.Program, Version: key.Version,
			Methods: []bytecode.MethodFingerprint{
				{Name: "$Globals.main", Hash: uint64(i)}, {Name: "Coder.step", Hash: 0x11}, {Name: "Coder.emit", Hash: 0x22}},
			Sites: []bytecode.Site{{Owner: 1, PC: 9}}}
		if _, _, err := m.RegisterManifest(man); err != nil {
			t.Fatal(err)
		}
		m.For(key).MergeDCGFrom("vm", uint64(i+1), dcgOf([4]int{1, 0, 2, 8}))
	}
	if m.Carried(keys[1]) == nil {
		t.Fatal("test needs a carried graph on the build that gets evicted")
	}
	mustSave(t, dir, m)

	// v1 and v2 retire; a straggler then pushes under v2, re-creating it
	// cold (no manifest, nothing carried).
	now = now.Add(time.Hour)
	if n := m.EvictRetired(time.Minute); n != 2 {
		t.Fatalf("evicted %d builds, want 2", n)
	}
	m.For(keys[1]).MergeDCGFrom("straggler", 1, dcgOf([4]int{1, 0, 2, 1}))
	// Files that are not the checkpoint's are left alone.
	others := []string{"forward-state.json", "plan-compress@00000000000000a1.plnb", "graph-notes.txt"}
	for _, other := range others {
		if err := os.WriteFile(filepath.Join(dir, other), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustSave(t, dir, m)
	mustHoldOnly(t, dir, append(others, CheckpointFile)...)

	r := NewMulti(4)
	if _, err := RestoreMultiCheckpoint(r, dir); err != nil {
		t.Fatal(err)
	}
	if r.Lookup(keys[0]) != nil {
		t.Error("evicted build restored")
	}
	if got := r.Lookup(keys[1]).Snapshot().Total(); got != 1 {
		t.Errorf("cold substore restored with weight %v, want the straggler's 1", got)
	}
	if r.Manifest(keys[1]) != nil || r.Carried(keys[1]) != nil {
		t.Error("cold substore came back with the manifest or carried graph of its evicted life")
	}
	if r.Manifest(keys[2]) == nil || r.Carried(keys[2]) == nil {
		t.Error("live build lost its manifest or carried graph")
	}
	if data, err := os.ReadFile(filepath.Join(dir, CheckpointFile)); err != nil || bytes.Contains(data, []byte(keys[0].Version)) {
		t.Errorf("the checkpoint still names the evicted build %s (read err %v)", keys[0].String(), err)
	}
}

// TestCheckpointRestoresEverything pins what a checkpoint is for,
// through the public surface only, so it holds whatever the files look
// like: the golden store family plus a second program one of whose
// builds was evicted, saved and restored into a fresh Multi. Per key the
// snapshot bytes, the ledger (a retried (pusher, seq) is dropped, seq+1
// admitted), the manifest and the carried graph come back; so do the
// build list and every program's latest version; the evicted build does
// not.
func TestCheckpointRestoresEverything(t *testing.T) {
	m := goldenMulti(t, true)
	dbOld := api.ProgramKey{Program: "db", Version: "00000000000000d1"}
	dbNew := api.ProgramKey{Program: "db", Version: "00000000000000d2"}
	m.For(dbOld).MergeDCGFrom("vm-4", 5, dcgOf([4]int{2, 3, 4, 9}))
	if _, _, err := m.RegisterManifest(&bytecode.Manifest{Program: dbNew.Program, Version: dbNew.Version,
		Methods: []bytecode.MethodFingerprint{{Name: "$Globals.main", Hash: 0xd2}}}); err != nil {
		t.Fatal(err)
	}
	m.For(dbNew).MergeDCGFrom("vm-4", 6, dcgOf([4]int{0, 0, 0, 3}))
	// An hour on, compress v1 still has a straggler and db's old build
	// does not: only the latter retires.
	now := time.Now().Add(time.Hour)
	m.SetClock(func() time.Time { return now })
	m.For(goldenV1)
	if n := m.EvictRetired(time.Minute); n != 1 || m.Lookup(dbOld) != nil {
		t.Fatalf("evicted %d builds, want db's old one alone", n)
	}

	dir := t.TempDir()
	mustSave(t, dir, m)
	r := NewMulti(4)
	if ok, err := RestoreMultiCheckpoint(r, dir); err != nil || !ok {
		t.Fatalf("restore = %v, %v", ok, err)
	}

	if got, want := r.Keys(), m.Keys(); !slices.Equal(got, want) {
		t.Fatalf("restored builds %v, want %v", got, want)
	}
	if r.Lookup(dbOld) != nil || r.Manifest(dbOld) != nil || r.Carried(dbOld) != nil {
		t.Error("the evicted build came back")
	}
	for _, program := range []string{"compress", "db", "never-seen"} {
		if got, want := r.LatestVersion(program), m.LatestVersion(program); got != want {
			t.Errorf("latest version of %s restored as %q, want %q", program, got, want)
		}
	}
	marks := map[api.ProgramKey]map[string]uint64{
		{}:       {"legacy-vm": 2},
		goldenV1: {"vm-1": 3},
		goldenV2: {"vm-2": 7, "vm-3": 1},
		dbNew:    {"vm-4": 6},
	}
	for _, key := range append([]api.ProgramKey{{}}, m.Keys()...) {
		name := key.String()
		if !bytes.Equal(r.Lookup(key).Snapshot().Encode(), m.Lookup(key).Snapshot().Encode()) {
			t.Errorf("%q: restored snapshot differs from the one checkpointed", name)
		}
		mm, rm := m.Manifest(key), r.Manifest(key)
		if (mm == nil) != (rm == nil) || mm != nil && !bytes.Equal(mm.Encode(), rm.Encode()) {
			t.Errorf("%q: manifest restored as %v, want %v", name, rm, mm)
		}
		mc, rc := m.Carried(key), r.Carried(key)
		if (mc == nil) != (rc == nil) || mc != nil && !bytes.Equal(mc.Encode(), rc.Encode()) {
			t.Errorf("%q: carried graph restored as %v, want %v", name, rc, mc)
		}
		if got := r.Lookup(key).Stats().Pushers; got != len(marks[key]) {
			t.Errorf("%q: restored %d sequence streams, want %d", name, got, len(marks[key]))
		}
		for pusher, seq := range marks[key] {
			if r.Lookup(key).MergeDCGFrom(pusher, seq, dcgOf([4]int{9, 9, 9, 1})) {
				t.Errorf("%q: retry of %s's increment %d applied after restore", name, pusher, seq)
			}
			if !r.Lookup(key).MergeDCGFrom(pusher, seq+1, dcgOf([4]int{9, 9, 9, 1})) {
				t.Errorf("%q: %s's increment %d refused after restore", name, pusher, seq+1)
			}
		}
	}
}

package dcgstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/atomicfile"
	"gocbs/internal/bytecode"
)

// restoreFrom restores dir's checkpoint into a fresh Multi.
func restoreFrom(t testing.TB, dir string) *Multi {
	t.Helper()
	r := NewMulti(4)
	if ok, err := RestoreMultiCheckpoint(r, dir); err != nil || !ok {
		t.Fatalf("restore = %v, %v", ok, err)
	}
	return r
}

// TestRegistrationOrderSurvivesRestore: a leaf that restarts before it
// has relayed two builds' manifests must still relay them in the order
// they were registered. Canonical key order would put …a2 before …b1;
// the root would then carry forward from a2 into b1, leave latest at b1
// and let -version-ttl retire the live build.
func TestRegistrationOrderSurvivesRestore(t *testing.T) {
	versions := func(m *Multi) (out []string) {
		for _, man := range m.ManifestsInOrder() {
			out = append(out, man.Version)
		}
		return out
	}
	register := func(m *Multi, version string) {
		t.Helper()
		if _, _, err := m.RegisterManifest(&bytecode.Manifest{Program: "compress", Version: version,
			Methods: []bytecode.MethodFingerprint{{Name: "$Globals.main", Hash: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	const b1, a2, c0, a3 = "00000000000000b1", "00000000000000a2", "00000000000000c0", "00000000000000a3"
	m := NewMulti(4)
	// c0 is pushed under before anything registers and registers last: a
	// build's place is its registration's, not its first push's.
	m.For(api.ProgramKey{Program: "compress", Version: c0})
	register(m, b1)
	register(m, a2)
	register(m, c0)
	want := []string{b1, a2, c0}
	if got := versions(m); !slices.Equal(got, want) {
		t.Fatalf("registered %v, ManifestsInOrder reads %v", want, got)
	}
	dir := t.TempDir()
	mustSave(t, dir, m)
	r := restoreFrom(t, dir)
	if got := versions(r); !slices.Equal(got, want) {
		t.Errorf("after a restore ManifestsInOrder reads %v, want the registration order %v", got, want)
	}
	if r.LatestVersion("compress") != c0 {
		t.Errorf("latest restored as %s, want %s", r.LatestVersion("compress"), c0)
	}
	// The order keeps growing at its end, through a second restart too.
	register(r, a3)
	mustSave(t, dir, r)
	if got, want := versions(restoreFrom(t, dir)), append(want, a3); !slices.Equal(got, want) {
		t.Errorf("after a second restore ManifestsInOrder reads %v, want %v", got, want)
	}
}

// failAfter writes the first n bytes of data and then fails.
type failAfter struct {
	data []byte
	n    int
}

var errDiskFull = errors.New("disk full")

func (f failAfter) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(f.data[:f.n])
	if err == nil {
		err = errDiskFull
	}
	return int64(n), err
}

// TestCheckpointGenerationIsAllOrNothing: a checkpoint that fails, at
// whatever point, leaves the previous one whole. Generation A is saved;
// every part of the Multi then changes (two graphs and their marks, a
// new build with a carried graph, an eviction, the succession table) and
// the save of generation B fails before its first byte, half way, and
// by a crash that leaves a truncated temp file behind. Each time a
// restore reads exactly A: no graph, mark, manifest, carried graph or
// latest version of B beside A's.
func TestCheckpointGenerationIsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	m := goldenMulti(t, true)
	mustSave(t, dir, m)
	genA := checkpointBytes(t, m)

	v3 := api.ProgramKey{Program: "compress", Version: "00000000000000a3"}
	m.For(api.ProgramKey{}).MergeDCGFrom("legacy-vm", 3, dcgOf([4]int{0, 0, 1, 1}))
	m.For(goldenV2).MergeDCGFrom("vm-2", 8, dcgOf([4]int{1, 1, 2, 2}))
	man := *m.Manifest(goldenV2)
	man.Version, man.Methods = v3.Version, slices.Clone(man.Methods)
	man.Methods[0].Hash = 0xa3
	if _, _, err := m.RegisterManifest(&man); err != nil || m.Carried(v3) == nil {
		t.Fatalf("registering %s: %v, carried %v", v3.String(), err, m.Carried(v3))
	}
	now := time.Now().Add(time.Hour)
	m.SetClock(func() time.Time { return now })
	m.For(goldenV2)
	if n := m.EvictRetired(time.Minute); n != 1 || m.Lookup(goldenV1) != nil {
		t.Fatalf("evicted %d builds, want %s alone", n, goldenV1.String())
	}
	genB := checkpointBytes(t, m)

	mustBeA := func(when string) {
		t.Helper()
		r := restoreFrom(t, dir)
		if got := checkpointBytes(t, r); !bytes.Equal(got, genA) {
			t.Errorf("%s: restored\n     %s\nwant generation A\n     %s", when, got, genA)
		}
		if r.Lookup(v3) != nil || r.Lookup(goldenV1) == nil || r.LatestVersion("compress") != goldenV2.Version {
			t.Errorf("%s: the restored Multi holds part of generation B", when)
		}
	}
	path := filepath.Join(dir, CheckpointFile)
	for _, n := range []int{0, len(genB) / 2} {
		if err := atomicfile.Write(path, failAfter{genB, n}); !errors.Is(err, errDiskFull) {
			t.Fatalf("a save that fails after %d bytes returned %v", n, err)
		}
		mustBeA(fmt.Sprintf("save failed after %d of %d bytes", n, len(genB)))
		mustHoldOnly(t, dir, CheckpointFile)
	}
	crashed := path + ".tmp-1234567"
	if err := os.WriteFile(crashed, genB[:len(genB)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	mustBeA("crashed half way through the temp file")
	if err := os.Remove(crashed); err != nil {
		t.Fatal(err)
	}

	mustSave(t, dir, m)
	if got := checkpointBytes(t, restoreFrom(t, dir)); !bytes.Equal(got, genB) {
		t.Errorf("after the save that succeeded, restored\n     %s\nwant generation B\n     %s", got, genB)
	}
	mustHoldOnly(t, dir, CheckpointFile)
}

// FuzzRestoreCheckpoint: whatever checkpoint.json holds, a restore never
// panics; what it refuses it refuses whole; and what it accepts saves
// and restores again to the same snapshots, builds and succession.
func FuzzRestoreCheckpoint(f *testing.F) {
	golden, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, n := range []int{0, 1, len(golden) / 3, len(golden) - 1} {
		f.Add(golden[:n])
	}
	f.Add(edited(f, golden, goldenV1, listedTwice))
	f.Add(edited(f, golden, goldenV2, func(_ *checkpoint, cs *checkpointStore) { cs.Marks["no such\nid"] = 1 }))
	f.Add(edited(f, golden, api.ProgramKey{}, overfull))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, CheckpointFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r := NewMulti(4)
		if _, err := RestoreMultiCheckpoint(r, dir); err != nil {
			if st := r.Stats(); st.Edges != 0 || st.Pushers != 0 || r.NumKeys() != 0 {
				t.Fatalf("refused (%v) but left %d edges, %d marks, %d builds behind", err, st.Edges, st.Pushers, r.NumKeys())
			}
			return
		}
		saved := checkpointBytes(t, r)
		mustSave(t, dir, r)
		again := restoreFrom(t, dir)
		if !slices.Equal(again.Keys(), r.Keys()) {
			t.Fatalf("builds %v restored again as %v", r.Keys(), again.Keys())
		}
		for key, g := range r.Snapshots() {
			if !bytes.Equal(again.Lookup(key).Snapshot().Encode(), g.Encode()) {
				t.Fatalf("%q: snapshot differs after a second save and restore", key.String())
			}
			if again.LatestVersion(key.Program) != r.LatestVersion(key.Program) {
				t.Fatalf("latest version of %q differs after a second save and restore", key.Program)
			}
		}
		if got := checkpointBytes(t, again); !bytes.Equal(got, saved) {
			t.Fatalf("a restored checkpoint saved\n     %s\nand, restored and saved again,\n     %s", saved, got)
		}
	})
}

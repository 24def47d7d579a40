package dcgstore

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bytecode"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden-state from goldenMulti")

const goldenStateDir = "testdata/golden-state"

var (
	goldenV1 = api.ProgramKey{Program: "compress", Version: "00000000000000a1"}
	goldenV2 = api.ProgramKey{Program: "compress", Version: "00000000000000a2"}
)

// goldenMulti builds the store family the golden state dir holds: the
// unstamped stream, and two builds of one program with manifests — the
// second registered after the first took weight, so it carries one edge
// forward (the one whose caller, callee and site owner are unchanged).
func goldenMulti(t *testing.T) *Multi {
	t.Helper()
	man := func(key api.ProgramKey, entryHash uint64) *bytecode.Manifest {
		return &bytecode.Manifest{Program: key.Program, Version: key.Version,
			Methods: []bytecode.MethodFingerprint{
				{Name: "$Globals.main", Hash: entryHash},
				{Name: "Coder.step", Hash: 0x11},
				{Name: "Coder.emit", Hash: 0x22},
			},
			Sites: []bytecode.SiteFingerprint{{Owner: 0, PC: 4}, {Owner: 1, PC: 9}}}
	}
	m := NewMulti(4)
	m.For(api.ProgramKey{}).MergeDCGFrom("legacy-vm", 2, dcgOf([4]int{0, 0, 1, 5}, [4]int{3, 1, 4, 2}))
	if _, _, err := m.RegisterManifest(man(goldenV1, 0xa1)); err != nil {
		t.Fatal(err)
	}
	m.For(goldenV1).MergeDCGFrom("vm-1", 3, dcgOf([4]int{0, 0, 1, 10}, [4]int{1, 1, 2, 64}))
	if _, _, err := m.RegisterManifest(man(goldenV2, 0xa2)); err != nil {
		t.Fatal(err)
	}
	m.For(goldenV2).MergeDCGFrom("vm-2", 7, dcgOf([4]int{1, 1, 2, 4}))
	m.For(goldenV2).MergeDCGFrom("vm-3", 1, dcgOf([4]int{0, 0, 2, 1}))
	if c := m.Carried(goldenV2); c == nil || c.Total() != 64 {
		t.Fatalf("golden v2 carried %v, want the 64-weight unchanged edge", c)
	}
	return m
}

// mustEqualDirs asserts got and want hold the same file names with the
// same bytes.
func mustEqualDirs(t *testing.T, got, want string) {
	t.Helper()
	list := func(dir string) map[string][]byte {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(entries))
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		return files
	}
	g, w := list(got), list(want)
	for name, wb := range w {
		gb, ok := g[name]
		if !ok {
			t.Errorf("%s: missing %s", got, name)
		} else if !bytes.Equal(gb, wb) {
			t.Errorf("%s: %s differs from %s (%d vs %d bytes)", got, name, want, len(gb), len(wb))
		}
	}
	for name := range g {
		if _, ok := w[name]; !ok {
			t.Errorf("%s: unexpected file %s", got, name)
		}
	}
}

// TestGoldenStateDir pins the checkpoint layout across commits: the
// committed state dir (zero key + two builds, a manifest each, one
// carried graph) restores and re-saves file-for-file byte-identically,
// and the same store family built from scratch writes the same bytes.
// Round-trip tests only prove a build reads what it wrote; this proves
// it reads and writes what every earlier build did.
func TestGoldenStateDir(t *testing.T) {
	if *updateGolden {
		if err := os.RemoveAll(goldenStateDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenStateDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := SaveMultiCheckpoint(goldenStateDir, goldenMulti(t)); err != nil {
			t.Fatal(err)
		}
	}

	restored := NewMulti(4)
	if ok, err := RestoreMultiCheckpoint(restored, goldenStateDir); err != nil || !ok {
		t.Fatalf("restore golden: %v, %v", ok, err)
	}
	resaved := t.TempDir()
	if err := SaveMultiCheckpoint(resaved, restored); err != nil {
		t.Fatal(err)
	}
	mustEqualDirs(t, resaved, goldenStateDir)

	fresh := t.TempDir()
	if err := SaveMultiCheckpoint(fresh, goldenMulti(t)); err != nil {
		t.Fatal(err)
	}
	mustEqualDirs(t, fresh, goldenStateDir)

	want := goldenMulti(t)
	for _, key := range []api.ProgramKey{{}, goldenV1, goldenV2} {
		if !bytes.Equal(dcgBytesOf(t, restored.Lookup(key).Snapshot()), dcgBytesOf(t, want.Lookup(key).Snapshot())) {
			t.Errorf("restored substore %q differs from the one checkpointed", key.String())
		}
	}
	if restored.Manifest(goldenV1) == nil || restored.Manifest(goldenV2) == nil ||
		restored.LatestVersion("compress") != goldenV2.Version {
		t.Error("manifests or succession lost")
	}
	if c := restored.Carried(goldenV2); c == nil || c.Total() != 64 || restored.Carried(goldenV1) != nil {
		t.Error("carried graphs not restored as checkpointed")
	}
}

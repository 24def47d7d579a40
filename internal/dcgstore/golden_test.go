package dcgstore

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden file of each test run: testdata/golden-checkpoint.json from goldenMulti, testdata/forward-state.json from the forwarder scenario")

const (
	goldenCheckpoint = "testdata/golden-checkpoint.json"
	// goldenCheckpointV1 is the file as it was before graphs counted their
	// windows (DCGB v1 graphs), kept to be read, never rewritten.
	goldenCheckpointV1 = "testdata/golden-checkpoint-v1.json"
)

var (
	goldenV1 = api.ProgramKey{Program: "compress", Version: "00000000000000a1"}
	goldenV2 = api.ProgramKey{Program: "compress", Version: "00000000000000a2"}
)

// goldenMulti builds the store family the golden checkpoint holds: the
// unstamped stream, and two builds of one program with manifests — the
// second registered after the first took weight, so it carries one edge
// forward (the one whose caller, callee and site owner are unchanged) and
// the first build's window count. With windows false no graph counts any:
// the family the v1 file holds.
func goldenMulti(t *testing.T, windows bool) *Multi {
	t.Helper()
	man := func(key api.ProgramKey, entryHash uint64) *bytecode.Manifest {
		return &bytecode.Manifest{Program: key.Program, Version: key.Version,
			Methods: []bytecode.MethodFingerprint{
				{Name: "$Globals.main", Hash: entryHash},
				{Name: "Coder.step", Hash: 0x11},
				{Name: "Coder.emit", Hash: 0x22},
			},
			Sites: []bytecode.Site{{Owner: 0, PC: 4}, {Owner: 1, PC: 9}}}
	}
	counted := func(w float64, g *profile.DCG) *profile.DCG {
		if windows {
			g.SetWindows(w)
		}
		return g
	}
	m := NewMulti(4)
	m.For(api.ProgramKey{}).MergeDCGFrom("legacy-vm", 2, dcgOf([4]int{0, 0, 1, 5}, [4]int{3, 1, 4, 2}))
	if _, _, err := m.RegisterManifest(man(goldenV1, 0xa1)); err != nil {
		t.Fatal(err)
	}
	m.For(goldenV1).MergeDCGFrom("vm-1", 3, counted(5, dcgOf([4]int{0, 0, 1, 10}, [4]int{1, 1, 2, 64})))
	if _, _, err := m.RegisterManifest(man(goldenV2, 0xa2)); err != nil {
		t.Fatal(err)
	}
	m.For(goldenV2).MergeDCGFrom("vm-2", 7, counted(1, dcgOf([4]int{1, 1, 2, 4})))
	m.For(goldenV2).MergeDCGFrom("vm-3", 1, dcgOf([4]int{0, 0, 2, 1}))
	if c := m.Carried(goldenV2); c == nil || c.Total() != 64 {
		t.Fatalf("golden v2 carried %v, want the 64-weight unchanged edge", c)
	}
	return m
}

// TestGoldenCheckpoint pins the checkpoint format across commits: the
// committed file (zero key + two builds, a manifest each, one carried
// graph, window counts) restores and re-saves byte-identically, and the
// same store family built from scratch writes the same bytes. Round-trip
// tests only prove a build reads what it wrote; this proves it reads and
// writes what the commit that wrote the file did. The file an earlier
// cbsd wrote, its graphs DCGB v1, restores to the same family with no
// window counted, and saves as that family does now.
// TestCheckpointRestoresEverything says what the restored Multi holds.
func TestGoldenCheckpoint(t *testing.T) {
	if *updateGolden {
		if err := os.WriteFile(goldenCheckpoint, checkpointBytes(t, goldenMulti(t, true)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		file    string
		windows bool
		resaves bool
	}{{goldenCheckpoint, true, true}, {goldenCheckpointV1, false, false}} {
		golden, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, CheckpointFile), golden, 0o644); err != nil {
			t.Fatal(err)
		}
		want := checkpointBytes(t, goldenMulti(t, c.windows))
		if got := checkpointBytes(t, restoreFrom(t, dir)); !bytes.Equal(got, want) {
			t.Errorf("%s restored and saved again is not its store family's checkpoint:\n got %s\nwant %s", c.file, got, want)
		}
		if c.resaves && !bytes.Equal(want, golden) {
			t.Errorf("the golden store family built from scratch saves differently:\n got %s\nwant %s", want, golden)
		}
	}
}

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

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden-checkpoint.json from goldenMulti")

const goldenCheckpoint = "testdata/golden-checkpoint.json"

var (
	goldenV1 = api.ProgramKey{Program: "compress", Version: "00000000000000a1"}
	goldenV2 = api.ProgramKey{Program: "compress", Version: "00000000000000a2"}
)

// goldenMulti builds the store family the golden checkpoint holds: the
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

// TestGoldenCheckpoint pins the checkpoint format across commits: the
// committed file (zero key + two builds, a manifest each, one carried
// graph) restores and re-saves byte-identically, and the same store
// family built from scratch writes the same bytes. Round-trip tests
// only prove a build reads what it wrote; this proves it reads and
// writes what the commit that wrote the file did.
// TestCheckpointRestoresEverything says what the restored Multi holds.
func TestGoldenCheckpoint(t *testing.T) {
	if *updateGolden {
		if err := os.WriteFile(goldenCheckpoint, checkpointBytes(t, goldenMulti(t)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CheckpointFile), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := checkpointBytes(t, restoreFrom(t, dir)); !bytes.Equal(got, golden) {
		t.Errorf("the golden checkpoint restored and saved again differs from it:\n got %s\nwant %s", got, golden)
	}
	if got := checkpointBytes(t, goldenMulti(t)); !bytes.Equal(got, golden) {
		t.Errorf("the golden store family built from scratch saves differently:\n got %s\nwant %s", got, golden)
	}
}

package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gocbs/internal/profile"
)

func sampleDCG() *profile.DCG {
	g := profile.NewDCG()
	g.AddSample(profile.Edge{Caller: 1, Site: 2, Callee: 3}, 40)
	g.AddSample(profile.Edge{Caller: 4, Site: 5, Callee: 6}, 2.5)
	g.AddSample(profile.Edge{Caller: 7, Site: 8, Callee: 9}, 0.125)
	return g
}

// TestLoadProfileBothFormats: of the two formats this tool used to
// read, DCGB (what cbsvm -save, cbsd /v1/snapshot and checkpoints
// write) loads bit-exactly, and the line-oriented text one is refused
// with an error that names the file.
func TestLoadProfileBothFormats(t *testing.T) {
	dir := t.TempDir()
	g := sampleDCG()

	binPath := filepath.Join(dir, "p.dcgb")
	if err := os.WriteFile(binPath, g.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadProfile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != g.NumEdges() || got.Total() != g.Total() {
		t.Fatalf("loaded graph %d edges/%v weight, want %d/%v",
			got.NumEdges(), got.Total(), g.NumEdges(), g.Total())
	}
	for _, e := range g.Edges() {
		if math.Float64bits(got.Weight(e)) != math.Float64bits(g.Weight(e)) {
			t.Errorf("edge %v weight %v, want bit-exact %v", e, got.Weight(e), g.Weight(e))
		}
	}

	txtPath := filepath.Join(dir, "p.dcg")
	text := "dcg v1\nedge 1 2 3 40\nedge 4 5 6 2.5\nedge 7 8 9 0.125\n"
	if err := os.WriteFile(txtPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadProfile(txtPath); err == nil ||
		!strings.Contains(err.Error(), "p.dcg") || !strings.Contains(err.Error(), "bad profile magic") {
		t.Errorf("text profile: err = %v, want a bad-magic error naming the file", err)
	}
}

func TestLoadProfileErrors(t *testing.T) {
	if _, err := loadProfile(filepath.Join(t.TempDir(), "missing.dcg")); err == nil {
		t.Error("missing file loaded")
	}
	bad := filepath.Join(t.TempDir(), "bad.dcg")
	if err := os.WriteFile(bad, []byte("PLNB not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadProfile(bad); err == nil || !strings.Contains(err.Error(), "bad.dcg") {
		t.Errorf("garbage profile: err = %v, want an error naming the file", err)
	}
}

package bytecode_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/mj"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/manifest_pinned.txt from this linker and BuildManifest")

const manifestGolden = "testdata/manifest_pinned.txt"

// TestManifestPinned holds what a build says about its call sites to
// the bytes the parallel site slices produced before they became one
// table: for the 15 suite programs and GenerateProgram seeds 0–31, a
// digest of the manifest's encoding (method fingerprints and the site
// table carry-forward keys on) and one of every SiteDescription in
// site order, against testdata/manifest_pinned.txt.
func TestManifestPinned(t *testing.T) {
	type subject struct{ name, src string }
	var subjects []subject
	for _, b := range bench.All() {
		subjects = append(subjects, subject{b.Name, b.Source})
	}
	for seed := int64(0); seed < 32; seed++ {
		subjects = append(subjects, subject{fmt.Sprintf("gen%02d", seed), mj.GenerateProgram(seed, 4)})
	}
	var got []string
	for _, s := range subjects {
		p, err := mj.Compile(s.src)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		descs := make([]string, len(p.Sites))
		for i := range descs {
			descs[i] = p.SiteDescription(i)
		}
		got = append(got, fmt.Sprintf("%s %d manifest=%x sites=%x", s.name, len(descs),
			sha256.Sum256(p.BuildManifest(s.name).Encode()),
			sha256.Sum256([]byte(strings.Join(descs, "\n")))))
	}
	text := strings.Join(got, "\n") + "\n"

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifestGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(manifestGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden at a commit whose linker and BuildManifest are the reference)", err)
	}
	if text == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, line := range got {
		if i >= len(wantLines) || wantLines[i] != line {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("manifest moved:\n got  %s\n want %s", line, w)
		}
	}
	if len(wantLines) > len(got) {
		t.Errorf("%d pinned lines have no program", len(wantLines)-len(got))
	}
}

package experiment

import "testing"

// The tentpole guarantee: every table, figure and study is
// byte-identical no matter how many workers the runner fans jobs over.
// Each entry of Artifacts is rendered serially (Parallel=1) and with 8
// workers — twice, to catch schedule-dependent flakiness — and the
// texts are compared.
func TestParallelOutputByteIdentical(t *testing.T) {
	benches, repeats := []string{"jess", "mtrt"}, 2
	// Under the race detector: one parallel pass over one benchmark,
	// and only the fan-out shapes with distinct concurrent code paths —
	// the measurement grid, the build-and-rerun pipeline, the widest
	// per-job variety (one technique switch per job) and the cheapest
	// second study shape. The rest reuse those shapes.
	raceSet := map[string]bool{"table 2a": true, "figure 5a": true, "study comparators": true, "study entrycheck": true}
	if raceLite {
		benches, repeats = []string{"mtrt"}, 1
	}
	for _, a := range Artifacts {
		id := a.Kind + " " + a.Name
		if raceLite && !raceSet[id] {
			continue
		}
		t.Run(id, func(t *testing.T) {
			cfg := testCfg(t, benches...)
			cfg.Samples = []int{1, 16} // two rows of Table 2 are as good as six here
			cfg.Parallel = 1
			serial, err := a.Render(cfg, "small")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Parallel = 8
			for run := 0; run < repeats; run++ {
				par, err := a.Render(cfg, "small")
				if err != nil {
					t.Fatal(err)
				}
				if par != serial {
					t.Fatalf("parallel run %d differs from serial output.\nserial:\n%s\nparallel:\n%s",
						run, serial, par)
				}
			}
		})
	}
}

// TestArtifactTableMatchesPins renders every entry of Artifacts under
// the configuration TestArtifactsPinned uses and requires the digest
// pinned there: the table prints what the direct calls print, and the
// two lists name the same artifacts.
func TestArtifactTableMatchesPins(t *testing.T) {
	if raceLite {
		t.Skip("pinned text is schedule-independent and verified by the non-race run; skipped under -race for time")
	}
	seen := 0
	for _, a := range Artifacts {
		id := a.Kind + " " + a.Name
		want, ok := pinnedDigests[id]
		if !ok {
			t.Errorf("%s has no pinned digest", id)
			continue
		}
		seen++
		text, err := a.Render(pinnedCfg(t), "small")
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := textDigest(text); got != want {
			t.Errorf("%s digest = %s, want %s\n%s", id, got, want, text)
		}
	}
	if seen != len(pinnedDigests) {
		t.Errorf("table covers %d of %d pinned artifacts", seen, len(pinnedDigests))
	}
}

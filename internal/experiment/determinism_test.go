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

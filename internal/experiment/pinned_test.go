package experiment

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestArtifactsPinned pins the rendered text of every deterministic
// artifact cbsbench prints, as a sha256 per artifact, under QuickConfig
// (seed 42) restricted to mtrt with input "small". The digests were
// written at the commit before cbsbench's arms became one table, by
// calling the experiment and Format functions exactly as
// cmd/cbsbench/main.go did then; a changed digest means an artifact's
// stdout moved. planloop's digest is of the loss ladder the study became
// (TestPlanLoopLadderPinned holds the whole suite's, readably): it moves
// with the plan compiler's retention rule, and says so there. Every
// artifact that prints what a CBS sampled — all but table 1 and study
// entrycheck, which prints overheads alone — was redrawn once, when a
// CBS began to place its ticks from its seed; and the four whose
// inlining reads a CBS graph's estimate (figure 5a, studies inliners,
// cleanup and planloop) moved once more when a window became one draw
// and a site's prior the rest of its family.
func TestArtifactsPinned(t *testing.T) {
	if raceLite {
		t.Skip("pinned text is schedule-independent and verified by the non-race run; skipped under -race for time")
	}
	for _, a := range Artifacts {
		id := a.Kind + " " + a.Name
		want, ok := pinnedDigests[id]
		if !ok {
			continue // reported by TestArtifactTableMatchesPins
		}
		t.Run(id, func(t *testing.T) {
			text, err := a.Render(pinnedCfg(t), "small")
			if err != nil {
				t.Fatal(err)
			}
			if got := textDigest(text); got != want {
				t.Errorf("%s digest = %s, want %s\n%s", id, got, want, text)
			}
		})
	}
}

// TestArtifactTableMatchesPins holds Artifacts and pinnedDigests to the
// same names, so that every artifact TestArtifactsPinned renders has a
// digest and every digest has an artifact that renders it.
func TestArtifactTableMatchesPins(t *testing.T) {
	seen := 0
	for _, a := range Artifacts {
		id := a.Kind + " " + a.Name
		if _, ok := pinnedDigests[id]; !ok {
			t.Errorf("%s has no pinned digest", id)
			continue
		}
		seen++
	}
	if seen != len(pinnedDigests) {
		t.Errorf("table covers %d of %d pinned artifacts", seen, len(pinnedDigests))
	}
}

// pinnedCfg is the configuration the digests were taken under.
func pinnedCfg(t *testing.T) Config {
	cfg := testCfg(t, "mtrt")
	cfg.Parallel = 4
	return cfg
}

func textDigest(text string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(text)))
}

var pinnedDigests = map[string]string{
	"table 1":           "3990a1aab1147880b5540c760674b7590ffe21c726aa80e4a2500623bdde98d3",
	"table 2a":          "f44a208782e7bd7bb30b7d814ff950dd325a38df6c4db92bc41f6faa7e1a8ea5",
	"table 2b":          "f0850aaa81e376b454e081621e4f38a7a1d60ccd38fe570fe108919d65d1cdd1",
	"table 3":           "5385d691d6b662c5e366d1e662c1a87db04f903529463409d72ba46a9afb1124",
	"figure 5a":         "26846b9cdec47f031bc5ce612475da2dc9781fe01a34aeeeb46f63bcc42c6081",
	"figure 5b":         "b06e5a3bc511d74ac9a6e0823a4dd2421727609ce3e1b39caa1522bbd1347301",
	"study convergence": "2585b19ff208f4265edc28688790bd7453758542d2203984ca31080152a847eb",
	"study skew":        "529ef9d11f15ea1ae5b71efca9e2cd123bf4baf893cfc6aedec0c3e26928b1e0",
	"study comparators": "c8bda22ba69d7f5016e46fa04cc82889d36974bc2340b4a5c60418a8fc4f5da2",
	"study inliners":    "0dfad83585ea11a6f6b632bee502b5d740eece812b57deeef45cf352fd4fc1d4",
	"study cleanup":     "60822213e2de6e54f602b942e619cfc02018e4c0ec6196bd563552b6fbacf346",
	"study online":      "e50e42afd467b61cfb9ea3d00c6dd8756dc780b88f56842542bb2ec9b2e74a13",
	"study entrycheck":  "703378b8944f487b3d930ddc94a95d7803de5864d9e11df9821766dbaae392ba",
	"study context":     "bb6a6001422bdf60dbda2a0f0cc4aef4dc712b68bf309efd0db4d14e1a6ea1fe",
	"study profilers":   "7d0ccc45b0b1d4d57d5dfc2b2d0cda75288c6e10ecda1369908d6049b7788cc3",
	"study planloop":    "1d053e7b009c52ea901c69c11da9192a8d893b2c362b97717bdae3f2d397dd3f",
}

package experiment

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"gocbs/internal/bench"
	"gocbs/internal/profiler"
)

// TestArtifactsPinned pins the rendered text of every deterministic
// artifact cbsbench prints, as a sha256 per artifact, under QuickConfig
// (seed 42) restricted to mtrt with input "small". The digests were
// written at the commit before cbsbench's arms became one table, by
// calling the experiment and Format functions exactly as
// cmd/cbsbench/main.go did then; a changed digest means an artifact's
// stdout moved. fleetsoak is left out: its report carries wall-clock
// figures. planloop's digest is of the loss ladder the study became
// (TestPlanLoopLadderPinned holds the whole suite's, readably): it moves
// with the plan compiler's retention rule, and says so there.
func TestArtifactsPinned(t *testing.T) {
	if raceLite {
		t.Skip("pinned text is schedule-independent and verified by the non-race run; skipped under -race for time")
	}
	for name, render := range pinnedRenders {
		name, render := name, render
		t.Run(name, func(t *testing.T) {
			text, err := render(pinnedCfg(t), "small")
			if err != nil {
				t.Fatal(err)
			}
			if got := textDigest(text); got != pinnedDigests[name] {
				t.Errorf("%s digest = %s, want %s\n%s", name, got, pinnedDigests[name], text)
			}
		})
	}
	if len(pinnedRenders) != len(pinnedDigests) {
		t.Errorf("%d renders, %d digests", len(pinnedRenders), len(pinnedDigests))
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
	"table 2a":          "6667e832287e7a2fdd10b8078ae83845234c61f35518e406773ec5820ea14aba",
	"table 2b":          "d3631b9079ee0ba652b096aea483c9da7e32c10a1116e9b41684f1cbde3ba783",
	"table 3":           "61fd6c4ec48a60b011cb58951abcaebda7b89c7cb71226b9ca2dd69ab6df3ada",
	"figure 5a":         "c8f00111e04ad7f8f3bfb0e4c6ea85ecc01182d96e6fa3edfc33dc1502060954",
	"figure 5b":         "149aee35b29227692e5afc776d5a735ffbd1e7bae590d6d3bb4200f4dff8bec6",
	"study convergence": "34f80c51a1aab9567bf753b2c1b3efffc8bbf7addb8f90ebf7c3ef5bd96199ee",
	"study skew":        "3813883454f26131ab85685c8cd49b63c9bdd5adcd4add6bcb68379a772918d8",
	"study comparators": "5c51659465a48849de436f998376ab07d190f2c34f9bc61ac6835736c5522b24",
	"study inliners":    "0dfad83585ea11a6f6b632bee502b5d740eece812b57deeef45cf352fd4fc1d4",
	"study cleanup":     "8f97c0dfa620a5820402791e37dacf921a25eb0104caf0d33ecb445ee05e3f30",
	"study online":      "5d30b725a81aabf4f0a3893e22136cab46efb134e34f157e5c67a203a461d023",
	"study entrycheck":  "703378b8944f487b3d930ddc94a95d7803de5864d9e11df9821766dbaae392ba",
	"study context":     "d2b50b30c4502cfa402f488191b214dcf40a188035b03a53514f9a597283a2ff",
	"study profilers":   "333bb1f0fd3916381551a0eb67fb9c686332790449e05500eda17613d45b632a",
	"study planloop":    "7254d9d093ab5f4a3d5aa43dc60e95a92f6bdcfc734fa982aee90f7f824b0851",
}

var pinnedRenders = map[string]func(cfg Config, input string) (string, error){
	"table 1": func(cfg Config, input string) (string, error) {
		rows, err := Table1(cfg)
		if err != nil {
			return "", err
		}
		return FormatTable1(rows), nil
	},
	"table 2a": func(cfg Config, input string) (string, error) {
		cells, err := Table2(cfg, profiler.FlavourRVM, input, DefaultStrides, DefaultSamples)
		if err != nil {
			return "", err
		}
		return FormatTable2("Table 2A: Jikes RVM flavour", cells, DefaultStrides, DefaultSamples), nil
	},
	"table 2b": func(cfg Config, input string) (string, error) {
		cells, err := Table2(cfg, profiler.FlavourJ9, input, DefaultStrides, DefaultSamples)
		if err != nil {
			return "", err
		}
		return FormatTable2("Table 2B: J9 flavour", cells, DefaultStrides, DefaultSamples), nil
	},
	"table 3": func(cfg Config, input string) (string, error) {
		params := DefaultTable3Params()
		rows, err := Table3(cfg, params)
		if err != nil {
			return "", err
		}
		return FormatTable3(rows, params), nil
	},
	"figure 5a": func(cfg Config, input string) (string, error) {
		rows, err := Figure5(cfg, Figure5Jikes, input)
		if err != nil {
			return "", err
		}
		return FormatFigure5(Figure5Jikes, rows), nil
	},
	"figure 5b": func(cfg Config, input string) (string, error) {
		rows, err := Figure5(cfg, Figure5J9, input)
		if err != nil {
			return "", err
		}
		return FormatFigure5(Figure5J9, rows), nil
	},
	"study convergence": func(cfg Config, input string) (string, error) {
		b := bench.ByName("javac")
		pts, err := Convergence(cfg, b, "large")
		if err != nil {
			return "", err
		}
		return FormatConvergence(b.Name+"-large", pts), nil
	},
	"study skew": func(cfg Config, input string) (string, error) {
		rows, err := SkewAblation(cfg, input, 31, 16)
		if err != nil {
			return "", err
		}
		return FormatSkew(rows, 31, 16), nil
	},
	"study comparators": func(cfg Config, input string) (string, error) {
		rows, err := Comparators(cfg, input)
		if err != nil {
			return "", err
		}
		return FormatComparators(rows), nil
	},
	"study inliners": func(cfg Config, input string) (string, error) {
		rows, err := InlinerAblation(cfg, input)
		if err != nil {
			return "", err
		}
		return FormatInliners(rows), nil
	},
	"study cleanup": func(cfg Config, input string) (string, error) {
		rows, err := CleanupAblation(cfg, input)
		if err != nil {
			return "", err
		}
		return FormatCleanup(rows), nil
	},
	"study online": func(cfg Config, input string) (string, error) {
		rows, err := Online(cfg, input)
		if err != nil {
			return "", err
		}
		return FormatOnline(rows), nil
	},
	"study entrycheck": func(cfg Config, input string) (string, error) {
		rows, err := EntryCheckStudy(cfg, input)
		if err != nil {
			return "", err
		}
		return FormatEntryCheck(rows), nil
	},
	"study context": func(cfg Config, input string) (string, error) {
		rows, err := ContextStudy(cfg, input)
		if err != nil {
			return "", err
		}
		return FormatContext(rows), nil
	},
	"study profilers": func(cfg Config, input string) (string, error) {
		rows, err := ProfilerStudy(cfg, input)
		if err != nil {
			return "", err
		}
		return FormatProfilers(rows), nil
	},
	"study planloop": func(cfg Config, input string) (string, error) {
		res, err := PlanLoop(cfg, input, DefaultPlanLoopParams())
		if err != nil {
			return "", err
		}
		return FormatPlanLoop(res), nil
	},
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesDeclarations keeps BENCHMARK.json and the metric
// declarations the program emits from in step, and inside the contract's
// limits.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 ||
		len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Fatalf("counts out of range: %d workloads, %d end-to-end, %d per-layer",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", m.RunSeconds)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	seen := map[string]bool{}
	check := func(kind string, got []manifestMetric, want []decl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json says %+v, the program %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: bad name or unit: %q %q", kind, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("%s: name %s used twice", kind, g.Name)
			}
			seen[g.Name] = true
			switch {
			case kind == "end_to_end" && (g.Bound == nil || *g.Bound != w.bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v, the program declares %v", kind, g.Name, g.Bound, w.bound)
			case kind == "per_layer" && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
	for _, w := range m.Workloads {
		if seen[w.Name] {
			t.Errorf("name %s is both a workload and a metric", w.Name)
		}
	}
}

// TestMetricNamesGolden makes a rename deliberate: the golden is the
// list later issues cite metrics from.
func TestMetricNamesGolden(t *testing.T) {
	var lines []string
	for _, w := range workloadNames {
		lines = append(lines, "workload "+w)
	}
	for _, d := range endToEnd {
		lines = append(lines, "end_to_end "+d.name+" "+d.unit)
	}
	for _, d := range perLayer {
		lines = append(lines, "per_layer "+d.name+" "+d.unit)
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "metric_names.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metric names differ from %s; if the rename is deliberate, rerun with UPDATE_GOLDEN=1\ngot:\n%s", path, got)
	}
}

func smokeConfig(t *testing.T, trace bool) config {
	return config{seed: 1, seconds: 1, smoke: true, trace: trace, outDir: t.TempDir()}
}

// TestSmokeEmitsEveryDeclaredMetric runs all five workloads at the smoke
// sizing, untraced and traced: every declared metric must come out
// exactly once per workload, with its unit, and every gate must pass.
func TestSmokeEmitsEveryDeclaredMetric(t *testing.T) {
	for _, trace := range []bool{false, true} {
		decls, kind := endToEnd, "untraced"
		if trace {
			decls, kind = perLayer, "traced"
		}
		var out bytes.Buffer
		cfg := smokeConfig(t, trace)
		file, code := execute(cfg, &out, &out)
		if code != 0 {
			t.Fatalf("%s smoke run exited %d:\n%s", kind, code, out.String())
		}
		for _, w := range workloadNames {
			res := file.Workloads[w]
			if res == nil {
				t.Fatalf("%s: no result for %s", kind, w)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s %s: correct=%v attempted=%d failed=%d %v", kind, w, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			var got, want []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			for _, d := range decls {
				want = append(want, d.name+" "+d.unit)
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s %s emits\n%v\nwant\n%v", kind, w, got, want)
			}
			if !trace {
				for name, m := range res.Metrics {
					if name != "quality_pct" && m.Value <= 0 {
						t.Errorf("%s %s: %s = %v, end-to-end metrics are never 0", kind, w, name, m.Value)
					}
				}
			}
		}
		// The last line of standard output is the contract's JSON object.
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&last); err != nil || !last.Correct || last.Attempted < 1 || last.Failed != 0 {
			t.Errorf("%s: bad last line (%v): %s", kind, err, lines[len(lines)-1])
		}
		if trace {
			for _, w := range workloadNames {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w+".jsonl")); err != nil {
					t.Errorf("no trace file for %s: %v", w, err)
				}
			}
		}
		if p := file.Provenance; p.Commit == "" || p.Commit == "unknown" || p.GoVersion == "" || p.NumCPU < 1 || p.Start == "" {
			t.Errorf("%s: incomplete provenance %+v", kind, p)
		}
	}
}

// TestOneWorkloadContractLine checks the form the driver reads: one
// workload, the declared names unprefixed.
func TestOneWorkloadContractLine(t *testing.T) {
	cfg := smokeConfig(t, false)
	cfg.workload = "fleet_ingest"
	var out bytes.Buffer
	if _, code := execute(cfg, &out, &out); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if m, ok := last.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s missing or wrong unit: %+v", d.name, m)
		}
	}
	if len(last.Metrics) != len(endToEnd) {
		t.Errorf("got %d metrics, want %d", len(last.Metrics), len(endToEnd))
	}
}

// TestCorruptedExpectationFailsTheCommand is the negative test: with one
// reference result perturbed, the command must report a failed operation
// and exit non-zero.
func TestCorruptedExpectationFailsTheCommand(t *testing.T) {
	cfg := smokeConfig(t, false)
	cfg.workload = "vm_bare"
	cfg.corruptExpectation = true
	var out bytes.Buffer
	file, code := execute(cfg, &out, &out)
	if code == 0 {
		t.Fatalf("a corrupted expectation went unnoticed:\n%s", out.String())
	}
	if res := file.Workloads["vm_bare"]; res.Correct || res.Failed == 0 {
		t.Errorf("result claims correct=%v failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("last line does not say correct=false:\n%s", out.String())
	}
}

func fakeResults(throughput, cycles float64) *resultFile {
	return &resultFile{Workloads: map[string]*result{
		"vm_bare": {Correct: true, Attempted: 10, Metrics: map[string]metric{
			"throughput":    {Value: throughput, Unit: "1/s"},
			"latency_ms":    {Value: 1000, Unit: "ms"},
			"quality_pct":   {Value: 100, Unit: "%"},
			"vm.cycles":     {Value: cycles, Unit: "count"},
			"vm.spread_pct": {Value: 3, Unit: "%"},
		}},
	}}
}

// TestCompareFlagsPlantedRegressions plants a 20 % slowdown and an
// off-by-one exact count; --compare must name each, and must accept an
// honest repeat.
func TestCompareFlagsPlantedRegressions(t *testing.T) {
	base := fakeResults(200, 1_000_000)
	if off := compareResults(base, fakeResults(195, 1_000_000), io.Discard); off != "" {
		t.Errorf("a 2.5%% wobble was flagged: %s", off)
	}
	if off := compareResults(base, fakeResults(160, 1_000_000), io.Discard); !strings.Contains(off, "vm_bare throughput") {
		t.Errorf("a 20%% slowdown was not flagged: %q", off)
	}
	if off := compareResults(base, fakeResults(200, 1_000_001), io.Discard); !strings.Contains(off, "vm_bare vm.cycles") {
		t.Errorf("an off-by-one exact count was not flagged: %q", off)
	}
	var table bytes.Buffer
	compareResults(base, fakeResults(160, 1_000_000), &table)
	if !strings.Contains(table.String(), "0.8000") || !strings.Contains(table.String(), "ratio base: A") {
		t.Errorf("the table does not show the ratio and its base:\n%s", table.String())
	}
	// Through the command, with files.
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, base); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, fakeResults(160, 1_000_000)); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"--compare", a, b}, io.Discard, io.Discard); code == 0 {
		t.Error("--compare exited 0 on a planted slowdown")
	}
	if code := run([]string{"--compare", a, a}, io.Discard, io.Discard); code != 0 {
		t.Errorf("--compare of a file with itself exited %d", code)
	}
}

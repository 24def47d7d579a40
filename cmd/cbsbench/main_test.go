package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"gocbs/internal/experiment"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestOneArtifactEndToEnd(t *testing.T) {
	code, out, errb := runCLI(t, "-quick", "-benchmarks", "compress", "-study", "entrycheck")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errb)
	}
	want, err := experiment.EntryCheckStudy(mustConfig(t, true, "compress", 1), "small")
	if err != nil {
		t.Fatal(err)
	}
	// Stdout is the artifact's text and nothing else; status goes to stderr.
	if out != experiment.FormatEntryCheck(want)+"\n" {
		t.Errorf("stdout is not the entrycheck study:\n%s", out)
	}
	if !strings.Contains(errb, "[study entrycheck done in ") {
		t.Errorf("no status line on stderr:\n%s", errb)
	}
}

func TestUnknownNameExitsTwoNamingIt(t *testing.T) {
	for _, tc := range []struct{ flag, value, valid string }{
		{"-study", "typo", "convergence, skew, comparators"},
		{"-table", "2", "1, 2a, 2b, 3"},
		{"-figure", "6", "5a, 5b"},
		{"-input", "typo", "small, large"},
	} {
		code, out, errb := runCLI(t, "-quick", tc.flag, tc.value)
		if code != 2 || out != "" {
			t.Errorf("%s %s: exit %d, stdout %q; want exit 2 and no output", tc.flag, tc.value, code, out)
		}
		if !strings.Contains(errb, `"`+tc.value+`"`) || !strings.Contains(errb, tc.valid) {
			t.Errorf("%s %s: stderr names neither the bad value nor the valid ones:\n%s", tc.flag, tc.value, errb)
		}
	}
	// A good name beside a bad one runs nothing either.
	if code, out, _ := runCLI(t, "-quick", "-table", "1", "-study", "typo"); code != 2 || out != "" {
		t.Errorf("good table + bad study: exit %d, stdout %q", code, out)
	}
	// No selector at all: usage, which lists every artifact with its help.
	code, _, errb := runCLI(t)
	if code != 2 {
		t.Errorf("no selector: exit %d, want 2", code)
	}
	for _, a := range experiment.Artifacts {
		if !strings.Contains(errb, a.Name) || !strings.Contains(errb, a.Help) {
			t.Errorf("usage does not document %s %s:\n%s", a.Kind, a.Name, errb)
		}
	}
}

func TestAllVisitsTheTableAndWritesNoFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every artifact once")
	}
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)

	code, out, errb := runCLI(t, "-all", "-quick", "-benchmarks", "compress")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errb)
	}
	var want []string
	for _, a := range experiment.Artifacts {
		want = append(want, a.Kind+" "+a.Name)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^\[(.*) done in `).FindAllStringSubmatch(errb, -1) {
		got = append(got, m[1])
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("-all ran %v\nwant the table, in order: %v", got, want)
	}
	if !strings.Contains(out, "Table 2B: J9 flavour") || !strings.Contains(out, "Fleet PGO loop:") {
		t.Errorf("stdout lacks artifacts from both ends of the table:\n%s", out)
	}
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("-all left %s in the working directory", e.Name())
	}
}

// -quick replaces the whole Config; -parallel, -full, -benchmarks and
// -progress must still take effect when given beside it.
func TestFlagsApplyAfterQuick(t *testing.T) {
	quick := mustConfig(t, true, "", 3)
	if len(quick.Seeds) != 1 || len(quick.Benchmarks) != 4 {
		t.Errorf("-quick: seeds=%v benchmarks=%d, want the one-seed four-benchmark config",
			quick.Seeds, len(quick.Benchmarks))
	}
	if quick.Parallel != 3 {
		t.Errorf("-quick -parallel 3: Parallel = %d", quick.Parallel)
	}
	full, err := config(true, true, "jess", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Samples) != len(experiment.FullSamples) || len(full.Benchmarks) != 1 {
		t.Errorf("-quick -full -benchmarks jess: %d sample rows, %d benchmarks", len(full.Samples), len(full.Benchmarks))
	}
	if def := mustConfig(t, false, "", 2); len(def.Seeds) != 3 || def.Parallel != 2 {
		t.Errorf("default config: seeds=%v parallel=%d", def.Seeds, def.Parallel)
	}
	if _, err := config(false, false, "nosuchbench", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}

	code, _, errb := runCLI(t, "-quick", "-benchmarks", "compress", "-progress", "-parallel", "2", "-study", "entrycheck")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errb)
	}
	if !regexp.MustCompile(`\r\[\d+/\d+ jobs `).MatchString(errb) {
		t.Errorf("-quick -progress drew no meter:\n%q", errb)
	}
}

func mustConfig(t *testing.T, quick bool, benchList string, parallel int) experiment.Config {
	t.Helper()
	cfg, err := config(quick, false, benchList, parallel)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

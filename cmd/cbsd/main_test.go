package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for cbsd: with CBSD_AS_MAIN set
// it runs main on its arguments, so the tests below drive the real flag
// handling in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("CBSD_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runCbsd runs cbsd on args, which must make it exit before it listens,
// and returns its exit code and stderr.
func runCbsd(t *testing.T, args ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CBSD_AS_MAIN=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("cbsd %v: %v, want a non-zero exit\n%s", args, err, errb.String())
	}
	return exit.ExitCode(), errb.String()
}

// TestPlanStabilityIsNotAFlag: the plan compiler's floor, band and hold
// are constants of internal/plan. Passing one of the flags that used to
// set them is a flag error, not a setting silently read as the default
// (-plan-band 0 once promised to disable the grid and did not).
func TestPlanStabilityIsNotAFlag(t *testing.T) {
	for _, args := range [][]string{{"-plan-band", "0"}, {"-plan-floor", "1"}, {"-plan-hold", "1"}} {
		code, stderr := runCbsd(t, args...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+args[0]) {
			t.Errorf("cbsd %v: exit %d, want 2 with a flag error\n%s", args, code, stderr)
		}
	}
}

// TestRoleContradictingUpstreamFails: -role asserts what -upstream makes
// the daemon, and a contradiction stops it before it serves.
func TestRoleContradictingUpstreamFails(t *testing.T) {
	for _, args := range [][]string{
		{"-role", "root", "-upstream", "http://x"},
		{"-role", "leaf"},
		{"-role", "middle"},
	} {
		if code, stderr := runCbsd(t, args...); code != 1 || !strings.Contains(stderr, "-role") {
			t.Errorf("cbsd %v: exit %d, want 1 naming -role\n%s", args, code, stderr)
		}
	}
}

// TestBadUpstreamIDFails: an -upstream-id the root would refuse as a
// pusher identity stops the leaf before it listens, whether it comes
// from the flag or from the state dir's forward-state.json.
func TestBadUpstreamIDFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "forward-state.json"), []byte(`{"id":"leaf 0","seq":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	leaf := []string{"-addr", "127.0.0.1:0", "-upstream", "http://127.0.0.1:1"}
	for _, tc := range []struct {
		args []string
		id   string
	}{
		{append(leaf, "-upstream-id", "has space"), "has space"},
		{append(leaf, "-state-dir", dir), "leaf 0"},
	} {
		if code, stderr := runCbsd(t, tc.args...); code != 1 || !strings.Contains(stderr, strconv.Quote(tc.id)) {
			t.Errorf("cbsd %v: exit %d, want 1 naming %q\n%s", tc.args, code, tc.id, stderr)
		}
	}
}

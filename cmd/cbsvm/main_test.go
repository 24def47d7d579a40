package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// TestMain lets the test binary stand in for cbsvm: with CBSVM_AS_MAIN
// set it runs main on its arguments, so the tests below drive the real
// flag handling and the real push path in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("CBSVM_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// push is one ingest as the fake daemon saw it.
type push struct {
	pusher string
	body   []byte
}

// fakeDaemon acknowledges every request and keeps the ingests.
func fakeDaemon(t *testing.T) (url string, pushes func() []push) {
	t.Helper()
	var mu sync.Mutex
	var got []push
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.URL.Path == "/v1/ingest" {
			mu.Lock()
			got = append(got, push{r.Header.Get("X-Cbs-Pusher"), body})
			mu.Unlock()
		}
		json.NewEncoder(w).Encode(map[string]any{})
	}))
	t.Cleanup(ts.Close)
	return ts.URL, func() []push {
		mu.Lock()
		defer mu.Unlock()
		return append([]push(nil), got...)
	}
}

// execCbsvm runs cbsvm in a child process and returns its exit code and
// stderr.
func execCbsvm(t *testing.T, args ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CBSVM_AS_MAIN=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("cbsvm %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), errb.String()
}

func runCbsvm(t *testing.T, args ...string) (stderr string) {
	t.Helper()
	code, stderr := execCbsvm(t, args...)
	if code != 0 {
		t.Fatalf("cbsvm %v: exit %d\n%s", args, code, stderr)
	}
	return stderr
}

// TestMisspeltSizeOrFlavourFails: -size lrage ran the small input and
// -flavour J9 the RVM flavour, each without a word. A value the flag
// does not know stops cbsvm before it runs anything, naming the flag and
// what it takes.
func TestMisspeltSizeOrFlavourFails(t *testing.T) {
	for _, tc := range []struct{ flag, value, valid string }{
		{"-size", "lrage", "small, large"},
		{"-flavour", "J9", "rvm, j9"},
	} {
		code, stderr := execCbsvm(t, "-bench", "compress", tc.flag, tc.value)
		if code != 1 || !strings.Contains(stderr, tc.flag+` "`+tc.value+`"`) || !strings.Contains(stderr, tc.valid) {
			t.Errorf("cbsvm %s %s: exit %d, want 1 naming the flag and %s\n%s", tc.flag, tc.value, code, tc.valid, stderr)
		}
	}
}

// TestPushRetryPolicyIsNotAFlag: a pusher retries, backs off and gives
// up by dcgstore's and api's defaults. Passing one of the flags that
// used to set them is a flag error, not a setting.
func TestPushRetryPolicyIsNotAFlag(t *testing.T) {
	for _, args := range [][]string{{"-push-retries", "2"}, {"-push-backoff", "1s"}, {"-push-give-up", "3"}} {
		code, stderr := execCbsvm(t, append([]string{"-bench", "compress"}, args...)...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+args[0]) {
			t.Errorf("cbsvm %v: exit %d, want 2 with a flag error\n%s", args, code, stderr)
		}
	}
}

var seedLine = regexp.MustCompile(`pusher (p-[0-9a-f]{16}): profiler seed (\d+) \(replay with -seed (\d+)\)`)

// TestPushersTakeTheirSeedFromTheirID: README's fleet quick start runs
// `cbsvm -bench compress -push URL` twice. With -seed left at its default
// both sampled on seed 42 and pushed one graph twice; now each takes a
// seed from the pusher ID it minted, says so on stderr, and pushes its own
// draw — and the printed seed replays the run. It runs jess: compress's
// small run samples 3 or 4 edges in 5 or 6 windows, and two seeds drew
// the same graph about one time in three.
func TestPushersTakeTheirSeedFromTheirID(t *testing.T) {
	url, pushes := fakeDaemon(t)
	args := []string{"-bench", "jess", "-push", url, "-push-every", "0"}
	first := seedLine.FindStringSubmatch(runCbsvm(t, args...))
	second := seedLine.FindStringSubmatch(runCbsvm(t, args...))
	if first == nil || second == nil {
		t.Fatalf("no seed line on stderr: %q, %q", first, second)
	}
	if first[2] != first[3] || first[2] == second[2] || first[1] == second[1] {
		t.Errorf("two pushers: %v and %v", first[1:], second[1:])
	}
	got := pushes()
	if len(got) != 2 || got[0].pusher != first[1] || got[1].pusher != second[1] {
		t.Fatalf("%d pushes, want one each under the printed IDs", len(got))
	}
	if bytes.Equal(got[0].body, got[1].body) {
		t.Error("both pushers pushed the same graph")
	}

	// An explicit -seed is taken as given and not announced; the one the
	// first run printed reproduces that run's graph.
	if out := runCbsvm(t, append(args, "-seed", first[2])...); seedLine.MatchString(out) {
		t.Errorf("-seed given, and still derived: %s", out)
	}
	if got = pushes(); len(got) != 3 || !bytes.Equal(got[2].body, got[0].body) {
		t.Errorf("-seed %s does not replay the run that printed it", first[2])
	}
	if seedOfPusher(first[1]) < 0 || seedOfPusher("p-0000000000000001") == seedOfPusher("p-0000000000000002") {
		t.Error("seedOfPusher: negative, or equal for two IDs")
	}
}

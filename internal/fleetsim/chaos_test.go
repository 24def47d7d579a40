package fleetsim

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseFaults(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
		err  bool
	}{
		{"all", "latency,drop-response,reset,5xx", false},
		{"none", "none", false},
		{"", "none", false},
		{"latency,5xx", "latency,5xx", false},
		{" reset ", "reset", false},
		{"bogus", "", true},
		{"latency,bogus", "", true},
	} {
		fs, err := ParseFaults(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseFaults(%q): expected error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFaults(%q): %v", tc.in, err)
			continue
		}
		if got := fs.String(); got != tc.want {
			t.Errorf("ParseFaults(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestTransportDrawsAreDeterministic is the core of the determinism
// contract: two transports for the same (seed, actor) draw identical
// fault sequences, and the disable switch does not perturb the stream.
func TestTransportDrawsAreDeterministic(t *testing.T) {
	faults, _ := ParseFaults("all")
	const n = 2000

	sequence := func(c *chaos, actor string) []FaultEvent {
		tr := c.transportFor(actor, "push")
		var out []FaultEvent
		for i := 1; i <= n; i++ {
			if k, _, ok := tr.draw(); ok {
				out = append(out, FaultEvent{Actor: actor, Request: i, Kind: k})
			}
		}
		return out
	}

	c1 := newChaos(42, faults, 0)
	c2 := newChaos(42, faults, 0)
	a, b := sequence(c1, "pusher-001"), sequence(c2, "pusher-001")
	if len(a) == 0 {
		t.Fatalf("no faults drawn in %d requests at rate %v", n, faultRate)
	}
	if len(a) != len(b) {
		t.Fatalf("same (seed, actor) drew %d vs %d faults", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}

	// A different actor under the same seed gets an independent stream.
	other := sequence(newChaos(42, faults, 0), "pusher-002")
	same := len(other) == len(a)
	if same {
		for i := range a {
			if other[i].Request != a[i].Request || other[i].Kind != a[i].Kind {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("two distinct actors drew identical fault sequences")
	}
}

// TestTransportFaultSemantics drives real requests through the chaos
// transport at a live backend and checks each fault kind's observable
// contract: drop-response and latency requests reach the backend,
// reset and synthetic-5xx requests do not, and clean requests succeed.
func TestTransportFaultSemantics(t *testing.T) {
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.WriteString(w, "ok")
	}))
	defer backend.Close()

	faults, _ := ParseFaults("all")
	c := newChaos(1, faults, time.Millisecond)
	defer c.close()
	c.router.set(PlaceholderHost, strings.TrimPrefix(backend.URL, "http://"))

	hc := &http.Client{Transport: c.transportFor("probe", "push")}
	const n = 400
	var errs, fiveohthree int
	for i := 0; i < n; i++ {
		resp, err := hc.Get("http://" + PlaceholderHost + "/x")
		if err != nil {
			errs++
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			fiveohthree++
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	counts := c.countsCopy()
	if counts[FaultReset] == 0 || counts[Fault5xx] == 0 || counts[FaultDropResponse] == 0 || counts[FaultLatency] == 0 {
		t.Fatalf("expected all fault kinds in %d requests, got %v", n, counts)
	}
	if fiveohthree != counts[Fault5xx] {
		t.Errorf("synthetic 503s seen %d, drawn %d", fiveohthree, counts[Fault5xx])
	}
	// Resets and drop-responses surface as client errors.
	if want := counts[FaultReset] + counts[FaultDropResponse]; errs != want {
		t.Errorf("client errors %d, want resets+drops = %d", errs, want)
	}
	// The backend sees everything except resets and synthetic 503s —
	// crucially, dropped responses WERE delivered.
	if got, want := int(hits.Load()), n-counts[FaultReset]-counts[Fault5xx]; got != want {
		t.Errorf("backend hits %d, want %d (n=%d minus %d resets, %d 503s)",
			got, want, n, counts[FaultReset], counts[Fault5xx])
	}

	// With no target, requests fail with a synthetic refusal and reach
	// nothing.
	c.router.set(PlaceholderHost, "")
	c.enabled.Store(false)
	before := hits.Load()
	if _, err := hc.Get("http://" + PlaceholderHost + "/x"); err == nil {
		t.Error("request with daemon down did not fail")
	} else if !strings.Contains(err.Error(), "connection refused") {
		t.Errorf("daemon-down error %q does not look like a refusal", err)
	}
	if hits.Load() != before {
		t.Error("daemon-down request reached the backend")
	}
}

func TestRestartRoundsSpread(t *testing.T) {
	if got := restartRounds(0, 8, 0); len(got) != 0 {
		t.Errorf("restartRounds(0,8,0) = %v", got)
	}
	got := restartRounds(0, 9, 2)
	if len(got) != 2 || !got[2] || !got[5] {
		t.Errorf("restartRounds(0,9,2) = %v, want rounds 2 and 5", got)
	}
	// An upgrade spreads its restarts over the rounds after the flip.
	if got := restartRounds(3, 6, 1); len(got) != 1 || !got[3] {
		t.Errorf("restartRounds(3,6,1) = %v, want round 3", got)
	}
	// Up to the boundary — one restart per round boundary — every
	// requested restart gets its own round, none after the last one.
	for first := 0; first < 3; first++ {
		for rounds := first + 1; rounds <= first+9; rounds++ {
			restarts := rounds - first - 1
			got := restartRounds(first, rounds, restarts)
			if len(got) != restarts {
				t.Errorf("restartRounds(%d,%d,%d) scheduled %d restarts: %v", first, rounds, restarts, len(got), got)
			}
			for r := range got {
				if r < first || r > rounds-2 {
					t.Errorf("restartRounds(%d,%d,%d) scheduled after round %d", first, rounds, restarts, r)
				}
			}
		}
	}
	// Past the boundary Run refuses, naming both numbers, instead of
	// silently performing fewer.
	for _, cfg := range []Config{{Rounds: 1, Restarts: 1}, {Rounds: 3, Restarts: 3}} {
		_, err := Run(cfg)
		if err == nil {
			t.Fatalf("Rounds=%d Restarts=%d ran anyway", cfg.Rounds, cfg.Restarts)
		}
		for _, want := range []string{fmt.Sprintf("Restarts=%d", cfg.Restarts), fmt.Sprintf("Rounds=%d", cfg.Rounds)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %s", err, want)
			}
		}
	}
	// The boundary itself runs, and performs exactly what was asked.
	rep, err := Run(Config{VMs: 1, Pullers: 1, Rounds: 3, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deterministic.RestartsDone != 2 || !rep.AllPassed() {
		t.Errorf("Rounds=3 Restarts=2 performed %d restart(s):\n%s", rep.Deterministic.RestartsDone, rep.Format())
	}
}

package daemon

import (
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"gocbs/internal/api"
	"gocbs/internal/bench"
	"gocbs/internal/profile"
)

// The lines of the indented /v1/metrics body whose values are read off
// the wall clock: three at the top level, four inside ingest_lat (its
// count stays).
var (
	topClockField = regexp.MustCompile(`^(  "(?:uptime_s|merge_ms_total|merge_ms_mean)": )[^,]+(,?)$`)
	latClockField = regexp.MustCompile(`^(    "(?:mean|p50|p99|max)": )[^,]+(,?)$`)
)

// zeroClockFields rewrites the clock-valued fields of a /v1/metrics
// body to 0.
func zeroClockFields(body string) string {
	lines := strings.Split(body, "\n")
	field := topClockField
	for i, line := range lines {
		switch {
		case line == `  "ingest_lat": {`:
			field = latClockField
		case strings.HasPrefix(line, "  }"):
			field = topClockField
		default:
			lines[i] = field.ReplaceAllString(line, "${1}0${2}")
		}
	}
	return strings.Join(lines, "\n")
}

// TestMetricsShapePinned holds the /v1/metrics body of a daemon in a
// fixed state — a manifest, stamped pushes to two builds, one re-sent
// stamp, one plan pull — to the bytes it had before the ingest-latency
// histogram became buckets: every name, their order and nesting, and
// every count. Only the fields read off the clock are zeroed. No push
// here is refused.
func TestMetricsShapePinned(t *testing.T) {
	ts, _ := newTestDaemon(t)
	prog := jitClone(t, bench.ByName("compress"))
	version := prog.Version()
	compress := keyedClient(ts.URL, "compress", version)
	if _, err := compress.RegisterManifest(prog.BuildManifest("compress")); err != nil {
		t.Fatal(err)
	}
	g := exhaustiveFor(t, "compress")
	for _, push := range []struct {
		pusher string
		seq    uint64
	}{{"vm-a", 1}, {"vm-a", 1}, {"vm-b", 1}, {"vm-a", 2}} { // the second is a retry
		if err := compress.PushDelta(push.pusher, push.seq, g); err != nil {
			t.Fatal(err)
		}
	}
	other := profile.NewDCG()
	other.AddSample(edge(1, 1, 2), 100)
	other.AddSample(edge(2, 3, 4), 28)
	if err := keyedClient(ts.URL, "mtrt", "ab12cd34").PushDelta("vm-c", 1, other); err != nil {
		t.Fatal(err)
	}
	resp := mustGet(t, ts.URL+api.PathPlan+"?program=compress&version="+version)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan pull: %s", resp.Status)
	}

	resp = mustGet(t, ts.URL+api.PathMetrics)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := zeroClockFields(string(body)); got != metricsShape {
		t.Errorf("/v1/metrics moved.\ngot:\n%s\nwant:\n%s", got, metricsShape)
	}
}

const metricsShape = `{
  "edges": 16,
  "total_weight": 504113,
  "samples_ingested": 504113,
  "merges": 4,
  "decay_epoch": 0,
  "pushers": 3,
  "ingests": 5,
  "ingest_errors": 0,
  "ingest_duplicates": 1,
  "merge_ms_total": 0,
  "merge_ms_mean": 0,
  "uptime_s": 0,
  "ingest_lat": {
    "count": 5,
    "mean": 0,
    "p50": 0,
    "p99": 0,
    "max": 0
  },
  "plan": {
    "programs": 1,
    "computed": 1,
    "unchanged": 0,
    "skipped": 0,
    "compile_errors": 0,
    "requests": 1,
    "not_modified": 0,
    "request_errors": 0
  },
  "program_versions": 2
}
`

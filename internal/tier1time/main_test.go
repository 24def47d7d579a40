package main

import (
	"strings"
	"testing"
)

// TestReport: packages and top-level tests are ranked slowest first, a
// subtest is left to its parent, and a failed test fails the report.
func TestReport(t *testing.T) {
	in := strings.Join([]string{
		`{"Time":"2026-01-01T00:00:00Z","Action":"start","Package":"p"}`,
		`{"Time":"2026-01-01T00:00:01Z","Action":"pass","Package":"p","Test":"TestFast","Elapsed":0.5}`,
		`{"Time":"2026-01-01T00:00:02Z","Action":"pass","Package":"p","Test":"TestSlow/sub","Elapsed":9}`,
		`{"Time":"2026-01-01T00:00:03Z","Action":"fail","Package":"p","Test":"TestSlow","Elapsed":9.5}`,
		`not json`,
		`{"Time":"2026-01-01T00:00:04Z","Action":"fail","Package":"p","Elapsed":10}`,
		`{"Time":"2026-01-01T00:00:05Z","Action":"pass","Package":"q","Elapsed":2}`,
	}, "\n")
	var out strings.Builder
	failed, err := report(strings.NewReader(in), &out)
	if err != nil || !failed {
		t.Fatalf("report gave failed=%v, err=%v; want a failure and no error", failed, err)
	}
	want := `wall time, first event to last: 5.0s
package wall time:
   10.00s  p  FAIL
    2.00s  q
ten slowest tests:
    9.50s  p TestSlow  FAIL
    0.50s  p TestFast
`
	if out.String() != want {
		t.Errorf("report printed\n%s\nwant\n%s", out.String(), want)
	}
	if _, err := report(strings.NewReader(""), &out); err == nil {
		t.Error("an empty stream reported no error")
	}
}

package daemon

import (
	"testing"
	"time"
)

// setUpstreamTimeout shortens a leaf's per-call upstream timeout for
// one test, so a test against a hung root waits out d, not
// api.DefaultTimeout.
func setUpstreamTimeout(t *testing.T, d time.Duration) {
	old := upstreamTimeout
	upstreamTimeout = d
	t.Cleanup(func() { upstreamTimeout = old })
}

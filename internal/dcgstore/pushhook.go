package dcgstore

import (
	"gocbs/internal/profile"
	"gocbs/internal/vm"
)

// TickPusher streams a profiler's growing DCG to a cbsd daemon from
// inside a running VM: every Every timer ticks it pushes the delta
// accumulated since the previous push. Install it alongside the
// collecting profiler (vm.SetProfiler(collector, pusher)), and call
// Flush after the run for the final increment.
//
// A failed push no longer disables the pusher: the increment stays
// queued in the underlying DeltaPusher (frozen with its sequence
// stamp) and is retried, ahead of newer increments, on the next tick —
// a daemon that comes back mid-run receives the full graph. Only after
// GiveUpAfter consecutive failed ticks does the pusher stop trying, so
// a daemon that is down for good does not tax the workload with
// timeouts forever. Flush always makes a final attempt, even after a
// give-up.
type TickPusher struct {
	// Every is the tick interval between pushes; <= 0 disables
	// periodic pushing (only Flush sends).
	Every int
	// GiveUpAfter stops periodic pushing after this many consecutive
	// failed ticks; 0 means never give up. NewTickPusher sets
	// DefaultGiveUpAfter.
	GiveUpAfter int
	// Err holds the most recent push failure; it is cleared by the
	// next success.
	Err error
	// Failures counts consecutive failed pushes (reset on success).
	Failures int

	graph    *profile.DCG
	pusher   *DeltaPusher
	ticks    int
	disabled bool
}

// DefaultGiveUpAfter is how many consecutive failed ticks NewTickPusher
// tolerates before periodic pushing stops.
const DefaultGiveUpAfter = 10

var (
	_ vm.Profiler     = (*TickPusher)(nil)
	_ vm.TickListener = (*TickPusher)(nil)
)

// NewTickPusher returns a pusher streaming graph to client every
// `every` ticks under the identity id (see NewDeltaPusherWithID; "" for
// a fresh one).
func NewTickPusher(client *Client, id string, graph *profile.DCG, every int) *TickPusher {
	return &TickPusher{
		Every:       every,
		GiveUpAfter: DefaultGiveUpAfter,
		graph:       graph,
		pusher:      NewDeltaPusherWithID(client, id),
	}
}

// Name implements vm.Profiler.
func (t *TickPusher) Name() string { return "dcg-push" }

// OnTimerTick implements vm.TickListener.
func (t *TickPusher) OnTimerTick(*vm.VM) {
	if t.Every <= 0 || t.disabled {
		return
	}
	t.ticks++
	if t.ticks%t.Every != 0 {
		return
	}
	t.attempt()
}

// attempt makes one push and updates the failure bookkeeping.
func (t *TickPusher) attempt() {
	if err := t.pusher.Push(t.graph); err != nil {
		t.Err = err
		t.Failures++
		if t.GiveUpAfter > 0 && t.Failures >= t.GiveUpAfter {
			t.disabled = true
		}
		return
	}
	t.Err = nil
	t.Failures = 0
}

// Flush pushes the final increment (plus any still-pending ones) and
// returns the resulting error state. It always tries, even if periodic
// pushing gave up mid-run.
func (t *TickPusher) Flush() error {
	t.attempt()
	return t.Err
}

// Pushes reports how many non-empty increments were acknowledged.
func (t *TickPusher) Pushes() int { return t.pusher.Pushes }

// Pending reports how many increments are still awaiting
// acknowledgement (non-zero after a run whose daemon was unreachable).
func (t *TickPusher) Pending() int { return t.pusher.Pending() }

package dcgstore

import (
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"gocbs/internal/api"
	"gocbs/internal/bytecode"
	"gocbs/internal/profile"
)

// NewPusherID returns a fresh random pusher identity. IDs are random
// (not host-derived) so two pushers never collide in the daemon's
// sequence table: a colliding restarted pusher would have its early
// increments dropped as duplicates of the previous incarnation's.
func NewPusherID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Fall back to the global PRNG; uniqueness is what matters and
		// 64 random bits from either source give it.
		return fmt.Sprintf("p-%016x", rand.Uint64())
	}
	return "p-" + hex.EncodeToString(b[:])
}

// Client is the delta-push view of a cbsd daemon: api.Client's
// connection settings plus the build every push is stamped with. The
// HTTP mechanics — endpoint paths, retry/backoff/timeout, error
// decoding — live in internal/api; the pusher identity and its sequence
// counter belong to the DeltaPusher that streams through a Client.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8944".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient (no timeout);
	// NewClient sets one with api.DefaultTimeout.
	HTTPClient *http.Client
	// Retries, Backoff, MaxBackoff tune push retry behaviour; zero
	// values select api's Default* constants, and Retries < 0 disables
	// retrying. A retry never counts twice: the push carries its
	// (pusher ID, sequence) stamp and the daemon drops an increment it
	// already applied (see sequence.go).
	Retries    int
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Key, when non-zero, stamps every push with a (program, version)
	// identity so the daemon merges it into that build's own graph
	// instead of the unkeyed aggregate. Set it to the pushing VM's
	// program name and bytecode.Program.Version().
	Key api.ProgramKey
}

// NewClient returns a client for the daemon at baseURL with the default
// timeout and retry policy.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: api.DefaultTimeout},
	}
}

// api materializes the unified client this wrapper delegates to. Built
// per call so field mutations (tests tune Retries/Backoff after
// NewClient) keep taking effect.
func (c *Client) api() *api.Client {
	return &api.Client{
		BaseURL:    c.BaseURL,
		HTTPClient: c.HTTPClient,
		Retries:    c.Retries,
		Backoff:    c.Backoff,
		MaxBackoff: c.MaxBackoff,
	}
}

// PushDelta sends one stamped increment: g under the given (pusher,
// sequence) identity. Transient failures (network errors, 5xx,
// throttling) are retried with capped exponential backoff and jitter;
// a duplicate response — the daemon already applied this sequence on
// an attempt whose response was lost — counts as success. The same
// (pusher, seq) pair must always carry the same graph.
func (c *Client) PushDelta(pusher string, seq uint64, g *profile.DCG) error {
	_, err := c.api().PushDeltaKeyed(pusher, seq, c.Key, g.Encode())
	return err
}

// RegisterManifest registers a build's method/site manifest with the
// daemon, enabling cross-version profile carry-forward when a newer
// build of the same program later registers. Idempotent.
func (c *Client) RegisterManifest(man *bytecode.Manifest) (*api.ManifestResponse, error) {
	return c.api().PushManifest(api.ProgramKey{Program: man.Program, Version: man.Version}, man.Encode())
}

// stampedDelta is one increment frozen with its sequence number, bound
// for the daemon's graph of key. Once stamped, the payload never
// changes: the daemon may have applied it on an attempt whose response
// was lost, so re-sending different bytes under the same sequence would
// desynchronize pusher and daemon.
type stampedDelta struct {
	seq   uint64
	key   api.ProgramKey
	delta *profile.DCG
}

// DeltaPusher streams monotonically growing DCGs to a daemon as
// non-overlapping increments: each capture takes only the weight added
// since the previous one, so the daemon's merge of all increments
// equals the source graph exactly (no double counting). Workers use it
// to push periodic snapshots mid-run plus one final flush; a leaf's
// Forwarder runs one stream per build through it.
//
// Delivery is exactly-once: every increment is stamped with this
// pusher's identity and a strictly increasing sequence number, and
// increments that could not be acknowledged stay queued — frozen, with
// their original stamps — and are re-sent in order ahead of newer
// increments on the next Push. The daemon drops any stamp it has
// already applied, so neither a lost response nor a later give-up can
// double-count an edge.
type DeltaPusher struct {
	client *Client
	id     string
	// seq is the last stamped sequence number. One counter stamps every
	// key: the daemon deduplicates per build against a per-pusher
	// high-water mark, and each key sees a strictly increasing
	// subsequence of one counter.
	seq uint64
	// last is each key's graph at its previous capture. Baselines are
	// replaced, never mutated, so a shallow copy of the map is a
	// rollback point.
	last map[api.ProgramKey]*profile.DCG
	// pending holds unacknowledged increments in sequence order.
	pending []stampedDelta
	// acked accumulates, per key, every increment the daemon
	// acknowledged; it is by construction the exact graph the daemon
	// owes this pusher for that key.
	acked map[api.ProgramKey]*profile.DCG
	// Pushes counts increments acknowledged by the daemon (empty
	// deltas are skipped).
	Pushes int
}

// NewDeltaPusherWithID returns a pusher under a caller-chosen identity;
// an empty or invalid id falls back to a fresh random one (so several
// DeltaPushers may share a Client). Fixed IDs are for deterministic
// harnesses (the fleet simulator names its pushers after their seed);
// production pushers pass "" for a random identity — see NewPusherID
// for why collisions are dangerous.
func NewDeltaPusherWithID(client *Client, id string) *DeltaPusher {
	if !ValidPusherID(id) {
		id = NewPusherID()
	}
	return &DeltaPusher{
		client: client,
		id:     id,
		last:   make(map[api.ProgramKey]*profile.DCG),
		acked:  make(map[api.ProgramKey]*profile.DCG),
	}
}

// Pending reports how many stamped increments await acknowledgement.
func (p *DeltaPusher) Pending() int { return len(p.pending) }

// Acknowledged returns a clone of the cumulative graph the daemon has
// acknowledged from this pusher — the sum of every frozen increment
// whose push succeeded. Under exactly-once delivery the daemon's store
// owes this pusher precisely this graph, which is what the fleet
// simulator's conservation checker asserts.
func (p *DeltaPusher) Acknowledged() *profile.DCG { return p.acknowledged(p.client.Key) }

// acknowledged returns a clone of key's acknowledged graph; an empty
// graph when the daemon has acknowledged nothing for key.
func (p *DeltaPusher) acknowledged(key api.ProgramKey) *profile.DCG {
	if g := p.acked[key]; g != nil {
		return g.Clone()
	}
	return profile.NewDCG()
}

// Push captures the weight cur has accumulated since the previous capture
// (all of cur on the first call) as a new stamped increment for the
// client's Key, then sends every pending increment in order. On failure
// the unsent tail stays queued for the next call; the capture still
// happened, so no weight is ever re-captured or lost. cur is cloned, so
// the caller's graph may keep growing immediately.
func (p *DeltaPusher) Push(cur *profile.DCG) error {
	p.capture(map[api.ProgramKey]*profile.DCG{p.client.Key: cur})
	return p.send(nil)
}

// capture stamps, key by key in api.SortedKeys order, the weight each
// graph of cur has accumulated since that key's previous capture, queues
// the increments and returns them. A delta with no edge is not stamped
// and its key's capture does not advance: windows it counted go with
// the next one that has an edge.
func (p *DeltaPusher) capture(cur map[api.ProgramKey]*profile.DCG) []stampedDelta {
	n := len(p.pending)
	for _, k := range api.SortedKeys(cur) {
		delta := cur[k].DeltaSince(p.last[k])
		if delta.NumEdges() == 0 {
			continue
		}
		p.last[k] = cur[k].Clone()
		p.seq++
		p.pending = append(p.pending, stampedDelta{seq: p.seq, key: k, delta: delta})
	}
	return p.pending[n:]
}

// send pushes pending increments oldest-first, each under its own key,
// stopping at the first failure. afterAck, when non-nil, runs after
// every acknowledged increment, and an error from it stops the loop too.
func (p *DeltaPusher) send(afterAck func() error) error {
	for len(p.pending) > 0 {
		head := p.pending[0]
		if _, err := p.client.api().PushDeltaKeyed(p.id, head.seq, head.key, head.delta.Encode()); err != nil {
			return err
		}
		p.pending = p.pending[1:]
		if p.acked[head.key] == nil {
			p.acked[head.key] = profile.NewDCG()
		}
		p.acked[head.key].Merge(head.delta)
		p.Pushes++
		if afterAck != nil {
			if err := afterAck(); err != nil {
				return err
			}
		}
	}
	return nil
}

package plan

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"gocbs/internal/api"
)

// Client pulls plans from a cbsd daemon's plan endpoint, using ETag
// conditional requests so an idle fleet costs the daemon one cheap 304
// per poll instead of a recompile-and-retransmit. The HTTP mechanics
// (paths, headers, error decoding) live in internal/api; this wrapper
// owns the per-build ETag/plan cache and the wire decoding. A pulling VM
// owns one, and a leaf's plan relay serves its pullers from one.
type Client struct {
	api *api.Client

	// mu guards state and is never held across a round trip: a slow
	// fetch of one build must not stall another build's, nor Cached.
	mu    sync.Mutex
	state map[string]*clientState
}

// clientState is one build's cache entry, replaced whole, never mutated.
type clientState struct {
	etag string
	plan *Plan
}

// NewClient returns a plan puller for the daemon at baseURL. The client
// is safe for concurrent use. In-client retries are disabled: the pull
// loop polls every few rounds anyway, so a failed poll is cheaper to
// skip than to block on.
func NewClient(baseURL string) *Client {
	return &Client{
		api: &api.Client{
			BaseURL:    baseURL,
			HTTPClient: &http.Client{Timeout: 30 * time.Second},
			Retries:    -1,
		},
		state: make(map[string]*clientState),
	}
}

// SetHTTPClient replaces the underlying HTTP client, before the first
// fetch. It is the seam through which the fleet simulator routes fetches
// through a fault-injecting transport and a leaf shares its one upstream
// client; a pulling VM keeps the default.
func (c *Client) SetHTTPClient(hc *http.Client) {
	if hc != nil {
		c.api.HTTPClient = hc
	}
}

func (c *Client) entry(key string) *clientState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state[key]
}

// FetchVersion returns the daemon's current plan for one build of a
// program and whether it changed since this client's previous fetch. An
// empty version asks for the daemon's canonical build; a non-empty one
// demands that exact build: a daemon that cannot produce it answers 404
// (surfaced as an error here), and a plan that decodes with any other
// version, or none, is refused with ErrVersionMismatch on the client
// side too — applying another build's decisions is never acceptable. A
// 304 Not Modified returns the cached plan with changed=false.
//
// Concurrent fetches of one build may each pay a round trip; the last
// to decode wins the cache slot, which is safe because a plan body is
// immutable per ETag.
func (c *Client) FetchVersion(program, version string) (p *Plan, changed bool, err error) {
	key := program + "@" + version
	prev := c.entry(key)
	var etag string
	if prev != nil {
		etag = prev.etag
	}
	res, err := c.api.GetPlanVersion(program, version, etag)
	if err != nil {
		return nil, false, err
	}
	if res.NotModified {
		if prev == nil {
			return nil, false, fmt.Errorf("plan fetch %s: 304 without a cached plan", key)
		}
		return prev.plan, false, nil
	}
	// A refused plan must never even enter the cache.
	got, err := Decode(res.Body, version)
	if err != nil {
		return nil, false, fmt.Errorf("plan fetch %s: %w", key, err)
	}
	c.mu.Lock()
	c.state[key] = &clientState{etag: res.ETag, plan: got}
	c.mu.Unlock()
	changed = prev == nil || prev.plan.Epoch != got.Epoch || prev.plan.Hash != got.Hash
	return got, changed, nil
}

// Cached returns the plan the last successful fetch of one build
// returned, or nil if none has succeeded.
func (c *Client) Cached(program, version string) *Plan {
	if st := c.entry(program + "@" + version); st != nil {
		return st.plan
	}
	return nil
}

// Builds returns how many builds the client holds a plan for.
func (c *Client) Builds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.state)
}

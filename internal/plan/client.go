package plan

import (
	"fmt"
	"net/http"
	"time"

	"gocbs/internal/api"
)

// Client pulls plans from a cbsd daemon's plan endpoint, using ETag
// conditional requests so an idle fleet costs the daemon one cheap 304
// per poll instead of a recompile-and-retransmit. The HTTP mechanics
// (paths, headers, error decoding) live in internal/api; this wrapper
// owns the per-program ETag/plan cache and the wire decoding.
type Client struct {
	api   *api.Client
	state map[string]*clientState
}

type clientState struct {
	etag string
	plan *Plan
}

// NewClient returns a plan puller for the daemon at baseURL. The
// client is not safe for concurrent use; each pulling VM owns one.
// In-client retries are disabled: the pull loop polls every few rounds
// anyway, so a failed poll is cheaper to skip than to block on.
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

// SetHTTPClient replaces the underlying HTTP client. It is the
// injection seam the fleet simulator uses to route fetches through a
// fault-injecting transport; production callers keep the default.
func (c *Client) SetHTTPClient(hc *http.Client) {
	if hc != nil {
		c.api.HTTPClient = hc
	}
}

// FetchVersion returns the daemon's current plan for one build of a
// program and whether it changed since this client's previous fetch. An
// empty version asks for the daemon's canonical build; a non-empty one
// demands that exact build: a daemon that cannot produce it answers 404
// (surfaced as an error here), and a plan that decodes with any other
// version, or none, is refused with ErrVersionMismatch on the client
// side too — applying another build's decisions is never acceptable. A
// 304 Not Modified returns the cached plan with changed=false.
func (c *Client) FetchVersion(program, version string) (p *Plan, changed bool, err error) {
	key := program + "@" + version
	st := c.state[key]
	var etag string
	if st != nil {
		etag = st.etag
	}
	res, err := c.api.GetPlanVersion(program, version, etag)
	if err != nil {
		return nil, false, err
	}
	if res.NotModified {
		if st == nil || st.plan == nil {
			return nil, false, fmt.Errorf("plan fetch %s: 304 without a cached plan", key)
		}
		return st.plan, false, nil
	}
	// A refused plan must never even enter the cache.
	got, err := Decode(res.Body, version)
	if err != nil {
		return nil, false, fmt.Errorf("plan fetch %s: %w", key, err)
	}
	c.state[key] = &clientState{etag: res.ETag, plan: got}
	changed = st == nil || st.plan == nil ||
		st.plan.Epoch != got.Epoch || st.plan.Hash != got.Hash
	return got, changed, nil
}

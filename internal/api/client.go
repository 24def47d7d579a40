package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"gocbs/internal/profile"
)

// Retry defaults, shared by every consumer: delta pushers, plan
// pullers, the federation forwarder, and tools. Retrying is safe where
// it is enabled — ingest is idempotent under the (pusher, seq) stamp
// and every other retried verb is a read.
const (
	// DefaultRetries is how many times a failed request is retried
	// after the first attempt.
	DefaultRetries = 4
	// DefaultBackoff is the first retry's base delay; each further
	// retry doubles it.
	DefaultBackoff = 100 * time.Millisecond
	// DefaultMaxBackoff caps the exponential growth.
	DefaultMaxBackoff = 2 * time.Second
	// DefaultTimeout is the per-request timeout of the http.Client the
	// delta pusher (dcgstore.NewClient) builds.
	DefaultTimeout = 10 * time.Second
)

// Client is the one HTTP client for a cbsd daemon. It owns the retry/
// backoff/timeout policy that was previously hand-rolled three times
// (dcgstore delta push, plan ETag pull, puller); the federation tier's
// leaf→root forwarder is its fourth consumer, not a fourth copy.
//
// A Client is safe for concurrent use as long as its fields are not
// mutated after first use; it keeps no per-request state (sequence
// numbers and ETag caches belong to the wrappers that own them).
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8944".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient (no timeout).
	HTTPClient *http.Client
	// Retries, Backoff, MaxBackoff tune retry behaviour; zero values
	// select the Default* constants. Retries < 0 disables retrying.
	Retries    int
	Backoff    time.Duration
	MaxBackoff time.Duration
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) retries() int {
	switch {
	case c.Retries == 0:
		return DefaultRetries
	case c.Retries < 0:
		return 0
	default:
		return c.Retries
	}
}

// backoffDelay returns the sleep before retry attempt (0-based), an
// exponentially growing delay capped at MaxBackoff with uniform jitter
// in [d/2, d) so a fleet knocked over together does not retry in
// lockstep.
func (c *Client) backoffDelay(attempt int) time.Duration {
	base, max := c.Backoff, c.MaxBackoff
	if base <= 0 {
		base = DefaultBackoff
	}
	if max <= 0 {
		max = DefaultMaxBackoff
	}
	d := base << attempt
	if d > max || d <= 0 { // <= 0: shift overflow
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// retryable classifies an attempt error. Network-level failures are
// ambiguous (the request may have been applied) and only idempotent
// requests retry through them; HTTPErrors carry their own verdict.
func retryable(err error) bool {
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Retryable()
	}
	return true // network-level failure
}

// do runs one request-building closure under the retry policy.
// idempotent=false downgrades to a single attempt: a non-idempotent
// request (decay) that failed ambiguously must surface the error, not
// silently double-apply.
func (c *Client) do(idempotent bool, attemptFn func() error) error {
	retries := c.retries()
	if !idempotent {
		retries = 0
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := attemptFn()
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) || attempt >= retries {
			if attempt > 0 {
				return fmt.Errorf("after %d attempts: %w", attempt+1, lastErr)
			}
			return lastErr
		}
		time.Sleep(c.backoffDelay(attempt))
	}
}

// roundTrip makes one attempt: build the request, send it, and convert
// a non-2xx status into an *HTTPError. handle consumes the successful
// response body. The request carries header itself, as the caller built
// it with canonical keys: every attempt only reads it (http.Client
// copies a request's header before it changes one).
func (c *Client) roundTrip(method, path string, header http.Header, body []byte, handle func(*http.Response) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if header != nil {
		req.Header = header
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, errMaxBody))
		resp.Body.Close()
	}()
	// 304 is a success for conditional GETs, not an error.
	if (resp.StatusCode < 200 || resp.StatusCode >= 300) && resp.StatusCode != http.StatusNotModified {
		return ReadHTTPError(resp)
	}
	if handle == nil {
		return nil
	}
	return handle(resp)
}

// getJSON GETs path and decodes the JSON body into out, retrying.
func (c *Client) getJSON(path string, out any) error {
	return c.do(true, func() error {
		return c.roundTrip(http.MethodGet, path, nil, nil, func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(out)
		})
	})
}

// PushDeltaKeyed sends one stamped increment: the serialized DCG
// payload under the given (pusher, sequence) identity, POSTed to
// PathIngest and merged into the per-(program, version) graph named by
// key. The zero key sends no identity headers, which is how the wire
// spells it. Transient failures retry with backoff; a duplicate
// response — the daemon already applied this sequence on an attempt
// whose response was lost — counts as success. The same (pusher, seq)
// pair must always carry the same bytes. An empty pusher sends an
// unstamped push, which the daemon merges every time it sees it: like
// Decay it makes exactly one attempt, because a retry after a lost
// response would count the payload twice.
func (c *Client) PushDeltaKeyed(pusher string, seq uint64, key ProgramKey, payload []byte) (*IngestResponse, error) {
	hdr := http.Header{"Content-Type": {"application/octet-stream"}}
	if pusher != "" {
		hdr.Set(HeaderPusher, pusher)
		hdr.Set(HeaderSeq, strconv.FormatUint(seq, 10))
	}
	if !key.IsZero() {
		hdr.Set(HeaderProgram, key.Program)
		hdr.Set(HeaderProgramVersion, key.Version)
	}
	var out IngestResponse
	err := c.do(pusher != "", func() error {
		return c.roundTrip(http.MethodPost, PathIngest, hdr, payload, func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&out)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("push: %w", err)
	}
	return &out, nil
}

// PushManifest registers one program version's method/site manifest
// (serialized bytecode manifest JSON) with the daemon. Idempotent:
// re-registering the same version is a no-op acknowledgement.
func (c *Client) PushManifest(key ProgramKey, manifestJSON []byte) (*ManifestResponse, error) {
	hdr := http.Header{
		"Content-Type":       {"application/json"},
		HeaderProgram:        {key.Program},
		HeaderProgramVersion: {key.Version},
	}
	var out ManifestResponse
	err := c.do(true, func() error {
		return c.roundTrip(http.MethodPost, PathManifest, hdr, manifestJSON, func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&out)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return &out, nil
}

// FetchSnapshot retrieves the daemon's merged DCG from PathSnapshot.
func (c *Client) FetchSnapshot() (*profile.DCG, error) {
	var g *profile.DCG
	err := c.do(true, func() error {
		return c.roundTrip(http.MethodGet, PathSnapshot, nil, nil, func(resp *http.Response) error {
			var err error
			g, err = profile.ReadDCG(resp.Body)
			return err
		})
	})
	if err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
	}
	return g, nil
}

// GetPlanVersion fetches the plan for one build of program from
// PathPlan, conditionally when ifNoneMatch carries a previous
// response's ETag. The daemon serves only a plan compiled for exactly
// that build and answers 404 when it cannot; an empty version asks for
// the daemon's canonical build of the program. The body stays raw
// bytes: decoding is the plan package's business (api sits below plan
// in the import graph).
func (c *Client) GetPlanVersion(program, version, ifNoneMatch string) (*PlanResult, error) {
	path := PathPlan + "?program=" + url.QueryEscape(program)
	if version != "" {
		path += "&version=" + url.QueryEscape(version)
	}
	var hdr http.Header
	if ifNoneMatch != "" {
		hdr = http.Header{"If-None-Match": {ifNoneMatch}}
	}
	var out *PlanResult
	err := c.do(true, func() error {
		return c.roundTrip(http.MethodGet, path, hdr, nil, func(resp *http.Response) error {
			res := &PlanResult{
				ETag:        resp.Header.Get("ETag"),
				NotModified: resp.StatusCode == http.StatusNotModified,
				Policy:      resp.Header.Get(HeaderPlanPolicy),
				Stale:       resp.Header.Get(HeaderRelayStale) == "1",
			}
			if e := resp.Header.Get(HeaderPlanEpoch); e != "" {
				res.Epoch, _ = strconv.ParseUint(e, 10, 64)
			}
			if !res.NotModified {
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					return err
				}
				res.Body = body
			}
			out = res
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("plan fetch %s: %w", program, err)
	}
	return out, nil
}

// Top returns the k heaviest edges (k <= 0 selects the daemon default).
func (c *Client) Top(k int) (*TopResponse, error) {
	path := PathTop
	if k > 0 {
		path += "?k=" + strconv.Itoa(k)
	}
	var out TopResponse
	if err := c.getJSON(path, &out); err != nil {
		return nil, fmt.Errorf("top: %w", err)
	}
	return &out, nil
}

// Site returns one call site's receiver-target distribution.
func (c *Client) Site(id int) (*SiteResponse, error) {
	var out SiteResponse
	if err := c.getJSON(PathSite+"?id="+strconv.Itoa(id), &out); err != nil {
		return nil, fmt.Errorf("site: %w", err)
	}
	return &out, nil
}

// Overlap scores ref against the daemon's snapshot. The request is a
// GET with a body (a read, like a search).
func (c *Client) Overlap(ref *profile.DCG) (*OverlapResponse, error) {
	body := ref.Encode()
	hdr := http.Header{"Content-Type": {"application/octet-stream"}}
	var out OverlapResponse
	err := c.do(true, func() error {
		return c.roundTrip(http.MethodGet, PathOverlap, hdr, body, func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&out)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("overlap: %w", err)
	}
	return &out, nil
}

// Decay runs one decay epoch. Not idempotent — a retried decay would
// compound — so a failed request makes exactly one attempt.
func (c *Client) Decay(factor, prune float64) (*DecayResponse, error) {
	path := fmt.Sprintf("%s?factor=%g", PathDecay, factor)
	if prune > 0 {
		path += fmt.Sprintf("&prune=%g", prune)
	}
	var out DecayResponse
	err := c.do(false, func() error {
		return c.roundTrip(http.MethodPost, path, nil, nil, func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&out)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("decay: %w", err)
	}
	return &out, nil
}

// Metrics fetches the daemon's operational counters.
func (c *Client) Metrics() (*MetricsResponse, error) {
	var out MetricsResponse
	if err := c.getJSON(PathMetrics, &out); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return &out, nil
}

// Flush forces a leaf daemon to forward its accumulated delta upstream
// now. Idempotent: a flush with nothing new pushes nothing.
func (c *Client) Flush() (*FlushResponse, error) {
	var out FlushResponse
	err := c.do(true, func() error {
		return c.roundTrip(http.MethodPost, PathFlush, nil, nil, func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&out)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	return &out, nil
}

// Register sends a leaf registration/heartbeat to a root daemon.
func (c *Client) Register(st LeafStatus) (*RegisterResponse, error) {
	body, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	hdr := http.Header{"Content-Type": {"application/json"}}
	var out RegisterResponse
	err = c.do(true, func() error {
		return c.roundTrip(http.MethodPost, PathRegister, hdr, body, func(resp *http.Response) error {
			return json.NewDecoder(resp.Body).Decode(&out)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	return &out, nil
}

// Leaves lists the leaves registered with a root daemon.
func (c *Client) Leaves() (*LeavesResponse, error) {
	var out LeavesResponse
	if err := c.getJSON(PathLeaves, &out); err != nil {
		return nil, fmt.Errorf("leaves: %w", err)
	}
	return &out, nil
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Client is the retrying HTTP client of the campaign API — the CLI's
// remote mode and anything else that must drive a campaign across a
// control-plane restart. Every request carries a per-request timeout and
// transient failures (network errors, 5xx, 429) retry on capped
// exponential backoff with deterministic seeded jitter. Creation is
// idempotent: the client always supplies the campaign ID, so a create
// retried across a crash or timeout can only ever land the campaign once
// (the server answers a duplicate with the existing campaign).
//
// Methods are safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	// attempts bounds tries per request; backoff doubles from backoffBase
	// to backoffCap between them.
	attempts    int
	backoffBase time.Duration
	backoffCap  time.Duration
	// poll is WaitDone's status-poll interval.
	poll time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// Client tuning defaults.
const (
	defaultAttempts    = 10
	defaultTimeout     = 30 * time.Second
	defaultBackoffBase = 100 * time.Millisecond
	defaultBackoffCap  = 3 * time.Second
	defaultPoll        = 150 * time.Millisecond
)

// NewClient returns a campaign API client for the server at base (e.g.
// "http://127.0.0.1:8080"). seed drives the retry/poll jitter — and only
// the jitter: campaign results never depend on it.
func NewClient(base string, seed int64) *Client {
	return &Client{
		base:        strings.TrimSuffix(base, "/"),
		hc:          &http.Client{Timeout: defaultTimeout},
		attempts:    defaultAttempts,
		backoffBase: defaultBackoffBase,
		backoffCap:  defaultBackoffCap,
		poll:        defaultPoll,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// jittered spreads d over [d/2, d) so a fleet of retrying clients does not
// stampede a restarting server in lockstep.
func (c *Client) jittered(d time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return d/2 + time.Duration(c.rng.Int63n(int64(d/2)))
}

// retryable classifies a response status: server-side trouble is worth
// retrying, anything else is the caller's answer.
func retryable(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// apiError unwraps the canonical {"error": "..."} body.
func apiError(code int, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("fleet: server status %d: %s", code, e.Error)
	}
	return fmt.Errorf("fleet: server status %d", code)
}

// do runs one API request with retries and decodes a 2xx body into out
// (when non-nil). body is re-serialized per attempt, so retries are safe.
func (c *Client) do(ctx context.Context, method, path string, body, out any) (int, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	var lastErr error
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			backoff := c.backoffBase << (attempt - 1)
			if backoff > c.backoffCap {
				backoff = c.backoffCap
			}
			select {
			case <-time.After(c.jittered(backoff)):
			case <-ctx.Done():
				return 0, fmt.Errorf("fleet: %s %s: %w (last: %v)", method, path, ctx.Err(), lastErr)
			}
		}
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return 0, err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return 0, fmt.Errorf("fleet: %s %s: %w", method, path, ctx.Err())
			}
			lastErr = err // network: connection refused/reset, timeout
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if retryable(resp.StatusCode) {
			lastErr = apiError(resp.StatusCode, data)
			continue
		}
		if resp.StatusCode >= 300 {
			return resp.StatusCode, apiError(resp.StatusCode, data)
		}
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				return resp.StatusCode, fmt.Errorf("fleet: decoding %s %s: %w", method, path, err)
			}
		}
		return resp.StatusCode, nil
	}
	return 0, fmt.Errorf("fleet: %s %s: %d attempts failed: %w", method, path, c.attempts, lastErr)
}

// Create schedules a campaign under the client-supplied id (the
// idempotency key; it must be non-empty). Re-invoking with the same id and
// spec — including transparent retries after a timeout or server restart —
// returns the already-scheduled campaign instead of a duplicate.
func (c *Client) Create(ctx context.Context, id string, spec Spec) (*Campaign, error) {
	if id == "" {
		return nil, fmt.Errorf("fleet: client creates need a campaign id (the idempotency key)")
	}
	req := struct {
		ID string `json:"id"`
		Spec
	}{ID: id, Spec: spec}
	var out Campaign
	if _, err := c.do(ctx, http.MethodPost, "/campaigns", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Get returns a campaign's status summary.
func (c *Client) Get(ctx context.Context, id string) (*Campaign, error) {
	var out Campaign
	if _, err := c.do(ctx, http.MethodGet, "/campaigns/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Nodes returns a done campaign's per-node results.
func (c *Client) Nodes(ctx context.Context, id string) ([]NodeResult, error) {
	var out []NodeResult
	if _, err := c.do(ctx, http.MethodGet, "/campaigns/"+id+"/nodes", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// WaitDone polls until the campaign reaches a terminal state (done,
// failed, or canceled) and returns it. The poll rides the same retry
// machinery as everything else, so it survives a control-plane restart
// mid-campaign.
func (c *Client) WaitDone(ctx context.Context, id string) (*Campaign, error) {
	for {
		camp, err := c.Get(ctx, id)
		if err != nil {
			return nil, err
		}
		switch camp.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			return camp, nil
		}
		select {
		case <-time.After(c.jittered(c.poll)):
		case <-ctx.Done():
			return nil, fmt.Errorf("fleet: waiting for campaign %q: %w", id, ctx.Err())
		}
	}
}

// Result assembles a done campaign's full Result — the summary plus the
// per-node payload — byte-equivalent to running the same spec locally
// with Run.
func (c *Client) Result(ctx context.Context, id string) (*Result, error) {
	camp, err := c.Get(ctx, id)
	if err != nil {
		return nil, err
	}
	if camp.Status != StatusDone || camp.Result == nil {
		return nil, fmt.Errorf("fleet: campaign %q is %s (%s); results need status %s",
			id, camp.Status, camp.Error, StatusDone)
	}
	nodes, err := c.Nodes(ctx, id)
	if err != nil {
		return nil, err
	}
	res := *camp.Result
	res.Nodes = nodes
	return &res, nil
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"syscall"
	"time"

	"github.com/phishinghook/phishinghook/internal/ethrpc"
)

// ScoreClient scores bytecode through a router (or directly against one
// replica — the wire format is identical). It is the client the watcher
// mounts when monitoring through the cluster: transient faults and 429s are
// retried with the same typed classification and Retry-After honoring as
// every other retry loop in the system. A mid-response disconnect (the
// server died after the headers: EOF, connection reset) is a typed transient
// ReplicaFault, never a raw transport error — and when fallback bases are
// configured, each transient failure rotates the next attempt onto the next
// base instead of hammering the one that just dropped the connection.
type ScoreClient struct {
	bases    []string // rotation order; bases[0] is the configured primary
	httpc    *http.Client
	attempts int
	backoff  time.Duration
}

// ReplicaFault is a typed transient failure of one exchange against a
// scoring base: the transport died, the response arrived torn, or the body
// ended mid-stream. The retry loop rotates to the next base on it.
type ReplicaFault struct {
	Base string // the base URL the exchange ran against
	Kind string // "transport", "disconnect", "torn", "mismatch"
	Err  error
}

// Error implements error.
func (f *ReplicaFault) Error() string {
	return fmt.Sprintf("cluster: %s fault on %s: %v", f.Kind, f.Base, f.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (f *ReplicaFault) Unwrap() error { return f.Err }

// replicaFault wraps err as a transient, typed fault.
func replicaFault(base, kind string, err error) error {
	return ethrpc.MarkTransient(&ReplicaFault{Base: base, Kind: kind, Err: err})
}

// disconnectKind distinguishes a mid-response disconnect from other decode
// failures: an EOF or connection reset while the body streams means the
// replica (or router) went away under us, not that it sent garbage.
func disconnectKind(err error) string {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return "disconnect"
	}
	return "torn"
}

// ScoreClientOption configures a ScoreClient.
type ScoreClientOption func(*ScoreClient)

// WithScoreRetries sets attempts (default 4) and base backoff (default
// 50ms, doubled per attempt; a 429's Retry-After is honored instead).
func WithScoreRetries(attempts int, backoff time.Duration) ScoreClientOption {
	return func(c *ScoreClient) {
		if attempts > 0 {
			c.attempts = attempts
		}
		if backoff > 0 {
			c.backoff = backoff
		}
	}
}

// WithScoreFallbacks appends alternate router/replica base URLs. After a
// transient fault the retry loop rotates onto the next base, so a watcher
// survives its primary router dying mid-response without surfacing an error.
func WithScoreFallbacks(bases ...string) ScoreClientOption {
	return func(c *ScoreClient) {
		for _, b := range bases {
			if b != "" {
				c.bases = append(c.bases, b)
			}
		}
	}
}

// WithScoreHTTPClient substitutes the transport (tests).
func WithScoreHTTPClient(h *http.Client) ScoreClientOption {
	return func(c *ScoreClient) { c.httpc = h }
}

// NewScoreClient builds a client for the given router/replica base URL.
func NewScoreClient(base string, opts ...ScoreClientOption) *ScoreClient {
	c := &ScoreClient{
		bases:    []string{base},
		httpc:    &http.Client{Timeout: 30 * time.Second, Transport: ethrpc.NewPooledTransport()},
		attempts: 4,
		backoff:  50 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// ScoreHexBatch scores already-hex-encoded bytecodes, retrying transient
// faults (replica restarts mid-roll, router admission 429s) before giving
// up. All-or-nothing: on success the verdicts align with hexes.
func (c *ScoreClient) ScoreHexBatch(ctx context.Context, hexes []string) ([]Verdict, error) {
	return c.retry(ctx, func(base string) ([]Verdict, error) { return c.post(ctx, base, hexes) })
}

// ScoreTxBatch scores transactions (hex calldata + hex callee bytecode;
// either side may be empty) through /score/tx with the same retry loop.
// All-or-nothing: on success the fused verdicts align with items.
func (c *ScoreClient) ScoreTxBatch(ctx context.Context, items []TxScoreItem) ([]Verdict, error) {
	return c.retry(ctx, func(base string) ([]Verdict, error) { return c.postTx(ctx, base, items) })
}

// retry drives one exchange function through the attempts/backoff schedule,
// honoring a 429's Retry-After, stopping on authoritative errors, and
// rotating to the next configured base after each transient fault.
func (c *ScoreClient) retry(ctx context.Context, do func(base string) ([]Verdict, error)) ([]Verdict, error) {
	var lastErr error
	backoff := c.backoff
	base := 0
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(ethrpc.RetryDelay(backoff, lastErr)):
			}
			backoff *= 2
		}
		verdicts, err := do(c.bases[base])
		if err == nil {
			return verdicts, nil
		}
		lastErr = err
		if !ethrpc.IsTransient(err) {
			return nil, err
		}
		base = (base + 1) % len(c.bases)
	}
	return nil, fmt.Errorf("cluster: score failed after %d attempts: %w", c.attempts, lastErr)
}

// post runs one exchange, classified like the router's replica exchanges:
// 429 → RateLimitError (transient, Retry-After attached), transport/5xx/
// disconnect/torn → typed transient ReplicaFault, anything else
// authoritative.
func (c *ScoreClient) post(ctx context.Context, base string, hexes []string) ([]Verdict, error) {
	body, err := json.Marshal(scoreRequest{Bytecodes: hexes})
	if err != nil {
		return nil, err
	}
	sr, err := c.exchange(ctx, base, "/score", body)
	if err != nil {
		return nil, err
	}
	if len(sr.Verdicts) != len(hexes) {
		return nil, replicaFault(base, "mismatch", fmt.Errorf("%d verdicts for %d bytecodes", len(sr.Verdicts), len(hexes)))
	}
	return sr.Verdicts, nil
}

// postTx runs one /score/tx exchange with the same outcome classification
// as post.
func (c *ScoreClient) postTx(ctx context.Context, base string, items []TxScoreItem) ([]Verdict, error) {
	body, err := json.Marshal(txScoreRequest{Txs: items})
	if err != nil {
		return nil, err
	}
	sr, err := c.exchange(ctx, base, "/score/tx", body)
	if err != nil {
		return nil, err
	}
	if len(sr.Verdicts) != len(items) {
		return nil, replicaFault(base, "mismatch", fmt.Errorf("%d verdicts for %d txs", len(sr.Verdicts), len(items)))
	}
	return sr.Verdicts, nil
}

// exchange POSTs one JSON body against base+path and decodes the verdict
// envelope, applying the shared outcome classification.
func (c *ScoreClient) exchange(ctx context.Context, base, path string, body []byte) (*scoreResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, replicaFault(base, "transport", err)
	}
	defer ethrpc.CloseBody(resp)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		ra := ethrpc.ParseRetryAfter(resp.Header.Get("Retry-After"))
		return nil, ethrpc.MarkTransient(&ethrpc.RateLimitError{RetryAfter: ra})
	case resp.StatusCode >= 500:
		return nil, replicaFault(base, "transport", fmt.Errorf("status %d", resp.StatusCode))
	case resp.StatusCode != http.StatusOK:
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
	}
	var sr scoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, replicaFault(base, disconnectKind(err), err)
	}
	return &sr, nil
}

// ReplicaState is one replica's answer to the cluster survey.
type ReplicaState struct {
	Replica    string `json:"replica"`
	Ready      bool   `json:"ready"`
	Champion   string `json:"champion,omitempty"`
	Challenger string `json:"challenger,omitempty"`
	Error      string `json:"error,omitempty"`
}

// replicaHealth is the slice of a replica's /healthz the cluster cares
// about (serve.go emits lifecycle via SwapStats when serving a Swappable).
type replicaHealth struct {
	Lifecycle struct {
		Champion   string `json:"champion"`
		Challenger string `json:"challenger"`
	} `json:"lifecycle"`
}

// Survey asks every replica for readiness and live champion/challenger —
// the convergence check after a rolling promote, and /admin/cluster's body.
func (rt *Router) Survey(ctx context.Context) []ReplicaState {
	out := make([]ReplicaState, len(rt.cfg.Replicas))
	for i, base := range rt.cfg.Replicas {
		st := ReplicaState{Replica: base}
		var h replicaHealth
		if err := rt.getJSON(ctx, base+"/healthz", &h); err != nil {
			st.Error = err.Error()
		} else {
			st.Champion = h.Lifecycle.Champion
			st.Challenger = h.Lifecycle.Challenger
		}
		st.Ready = rt.ready(ctx, base)
		out[i] = st
	}
	return out
}

// RollingStep records one stage of a rolling admin operation.
type RollingStep struct {
	Replica  string `json:"replica"`
	Action   string `json:"action"`
	Champion string `json:"champion,omitempty"`
	WaitMS   int64  `json:"wait_ms"` // time until the replica was ready again
}

// RollingPromote propagates a champion flip across the whole ring with zero
// dropped scores: promote on the first replica (which rewrites the shared
// store manifest), then reload every other replica so each picks the new
// champion up — each step gated on the replica reporting ready again before
// the next one is touched, so at most one replica is mid-swap at a time.
// Finishes with a convergence check that every reachable replica serves the
// same champion.
func (rt *Router) RollingPromote(ctx context.Context) ([]RollingStep, error) {
	steps := make([]RollingStep, 0, len(rt.cfg.Replicas))
	step, err := rt.adminStep(ctx, rt.cfg.Replicas[0], "promote")
	steps = append(steps, step)
	if err != nil {
		return steps, err
	}
	want := step.Champion
	for _, base := range rt.cfg.Replicas[1:] {
		step, err := rt.adminStep(ctx, base, "reload")
		steps = append(steps, step)
		if err != nil {
			return steps, err
		}
	}
	for _, st := range rt.Survey(ctx) {
		if st.Error == "" && st.Champion != want {
			return steps, fmt.Errorf("cluster: %s serves champion %q after promote to %q", st.Replica, st.Champion, want)
		}
	}
	return steps, nil
}

// RollingReload re-reads the store manifest on every replica in ring order,
// readiness-gated — the cluster-wide form of POST /admin/reload, used when a
// new champion or challenger was written to the shared store out of band.
func (rt *Router) RollingReload(ctx context.Context) ([]RollingStep, error) {
	steps := make([]RollingStep, 0, len(rt.cfg.Replicas))
	for _, base := range rt.cfg.Replicas {
		step, err := rt.adminStep(ctx, base, "reload")
		steps = append(steps, step)
		if err != nil {
			return steps, err
		}
	}
	return steps, nil
}

// adminStep POSTs one /admin/<action> to a replica and waits until the
// replica reports ready again.
func (rt *Router) adminStep(ctx context.Context, base, action string) (RollingStep, error) {
	step := RollingStep{Replica: base, Action: action}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/admin/"+action, nil)
	if err != nil {
		return step, err
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return step, fmt.Errorf("cluster: %s %s: %w", action, base, err)
	}
	var body struct {
		Champion string `json:"champion"`
		Error    string `json:"error"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return step, fmt.Errorf("cluster: %s %s: status %d: %s", action, base, resp.StatusCode, body.Error)
	}
	if decErr != nil {
		return step, fmt.Errorf("cluster: %s %s: %w", action, base, decErr)
	}
	step.Champion = body.Champion
	if err := rt.awaitReady(ctx, base); err != nil {
		return step, err
	}
	step.WaitMS = time.Since(t0).Milliseconds()
	return step, nil
}

// awaitReady polls a replica's /readyz until it answers 200 or ReadyTimeout
// elapses.
func (rt *Router) awaitReady(ctx context.Context, base string) error {
	deadline := time.Now().Add(rt.cfg.ReadyTimeout)
	for {
		if rt.ready(ctx, base) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %s not ready after %s", base, rt.cfg.ReadyTimeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
}

func (rt *Router) ready(ctx context.Context, base string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (rt *Router) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

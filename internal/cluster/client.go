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
	"github.com/phishinghook/phishinghook/internal/httpapi"
)

// exchanger runs the one /score and /score/tx exchange that the router
// (against a replica) and ScoreClient (against a router or replica) share.
type exchanger struct {
	httpc   *http.Client
	timeout time.Duration // caps one exchange, body included
}

func newExchanger(timeout time.Duration) exchanger {
	return exchanger{httpc: &http.Client{Transport: ethrpc.NewPooledTransport()}, timeout: timeout}
}

// exchange POSTs req as JSON to base+path and returns the n verdicts of
// the reply. The error classes are what ethrpc.Retry steers by:
//
//   - 429: a transient *ethrpc.RateLimitError carrying Retry-After;
//   - the exchange's own timeout: transient, matching
//     context.DeadlineExceeded (the watchdog and AIMD count it);
//   - the caller's cancellation: the bare context error;
//   - transport faults, 5xx, torn or disconnected bodies and a
//     verdict-count mismatch: a transient *ReplicaFault;
//   - any other status: authoritative, with the body's message.
func (x exchanger) exchange(ctx context.Context, base, path string, req any, n int) ([]httpapi.Verdict, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	caller := ctx
	ctx, cancel := context.WithTimeout(ctx, x.timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	fail := func(kind string, err error) error {
		switch {
		case caller.Err() != nil:
			return caller.Err()
		case ctx.Err() != nil:
			return ethrpc.MarkTransient(context.DeadlineExceeded)
		}
		return replicaFault(base, kind, err)
	}
	resp, err := x.httpc.Do(hreq)
	if err != nil {
		return nil, fail("transport", err)
	}
	defer ethrpc.CloseBody(resp)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		ra := ethrpc.ParseRetryAfter(resp.Header.Get("Retry-After"))
		return nil, ethrpc.MarkTransient(&ethrpc.RateLimitError{RetryAfter: ra})
	case resp.StatusCode >= 500:
		return nil, replicaFault(base, "transport", fmt.Errorf("status %d", resp.StatusCode))
	case resp.StatusCode != http.StatusOK:
		var e httpapi.ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, e.Error)
	}
	var sr httpapi.ScoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, fail(disconnectKind(err), err)
	}
	if len(sr.Verdicts) != n {
		return nil, replicaFault(base, "mismatch", fmt.Errorf("%d verdicts for %d items", len(sr.Verdicts), n))
	}
	return sr.Verdicts, nil
}

// ReplicaFault is a typed transient failure of one exchange against a
// scoring base: the transport died, the replica answered 5xx, the response
// arrived torn, the body ended mid-stream, or it carried the wrong number
// of verdicts. ethrpc.Retry tries again on it.
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

// ScoreClient scores bytecode through a router (or directly against one
// replica — the wire format is identical). It is the client the watcher
// mounts when monitoring through the cluster: transient faults and 429s are
// retried through ethrpc.Retry, honoring Retry-After.
type ScoreClient struct {
	exchanger
	base  string
	retry ethrpc.RetryPolicy
}

// ScoreClientOption configures a ScoreClient.
type ScoreClientOption func(*ScoreClient)

// WithScoreRetries sets attempts (default 4) and base backoff (default
// 50ms, doubled per attempt; a 429's Retry-After is honored instead).
func WithScoreRetries(attempts int, backoff time.Duration) ScoreClientOption {
	return func(c *ScoreClient) {
		if attempts > 0 {
			c.retry.Attempts = attempts
		}
		if backoff > 0 {
			c.retry.Backoff = backoff
		}
	}
}

// NewScoreClient builds a client for the given router/replica base URL.
func NewScoreClient(base string, opts ...ScoreClientOption) *ScoreClient {
	c := &ScoreClient{
		exchanger: newExchanger(30 * time.Second),
		base:      base,
		retry:     ethrpc.RetryPolicy{Attempts: 4, Backoff: 50 * time.Millisecond, RetryAfter: true},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// ScoreHexBatch scores already-hex-encoded bytecodes, retrying transient
// faults (replica restarts mid-roll, router admission 429s) before giving
// up. All-or-nothing: on success the verdicts align with hexes.
func (c *ScoreClient) ScoreHexBatch(ctx context.Context, hexes []string) ([]httpapi.Verdict, error) {
	return c.score(ctx, "/score", httpapi.ScoreRequest{Bytecodes: hexes}, len(hexes))
}

// ScoreTxBatch scores transactions (hex calldata + hex callee bytecode;
// either side may be empty) through /score/tx with the same retries.
// All-or-nothing: on success the fused verdicts align with items.
func (c *ScoreClient) ScoreTxBatch(ctx context.Context, items []httpapi.TxScoreItem) ([]httpapi.Verdict, error) {
	return c.score(ctx, "/score/tx", httpapi.TxScoreRequest{Txs: items}, len(items))
}

// score runs the exchange through ethrpc.Retry.
func (c *ScoreClient) score(ctx context.Context, path string, req any, n int) ([]httpapi.Verdict, error) {
	return ethrpc.Retry(ctx, c.retry, func() ([]httpapi.Verdict, error) {
		return c.exchange(ctx, c.base, path, req, n)
	})
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
	ethrpc.CloseBody(resp)
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

// readyTimeout bounds how long a rolling step waits for one replica to
// report ready again after a reload/promote.
const readyTimeout = 15 * time.Second

// awaitReady polls a replica's /readyz until it answers 200 or
// readyTimeout elapses.
func (rt *Router) awaitReady(ctx context.Context, base string) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		if rt.ready(ctx, base) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %s not ready after %s", base, readyTimeout)
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
	ethrpc.CloseBody(resp)
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
	defer ethrpc.CloseBody(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

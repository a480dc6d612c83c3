package ethrpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// RateLimitError is an HTTP 429 from the endpoint. RetryAfter carries the
// parsed Retry-After header (0 when the server didn't send one); a retry
// policy with RetryAfter set waits that long instead of its backoff, and the
// fetch plane treats the error as the congestion signal that halves an
// endpoint's AIMD concurrency window.
type RateLimitError struct {
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("rate limited (429, retry after %s)", e.RetryAfter)
	}
	return "rate limited (429)"
}

// transientError marks a failure the caller may safely retry against the
// same or another endpoint (transport faults, 5xx, 429, torn responses).
// JSON-RPC application errors and malformed-but-authoritative responses are
// never wrapped: the server has answered.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// IsTransient reports whether err is a retryable fault (the classification
// Retry and the plane's scheduler key on).
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// MarkTransient wraps err as a retryable fault. Exchanges outside this
// package (the scoring cluster's HTTP client, the explorer crawler) use it
// to tag transport faults, 5xx statuses, 429s and torn responses the way the
// JSON-RPC client does internally.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

// RetryPolicy paces Retry.
type RetryPolicy struct {
	// Attempts is the number of tries, the first included.
	Attempts int
	// Backoff is the base wait before the second try, doubled before each
	// later one; jitter adds up to half of it.
	Backoff time.Duration
	// RetryAfter makes a 429's Retry-After (capped at 5s, jittered) replace
	// the backoff. Leave it off when the next try goes elsewhere or the
	// server's header does not size the wait.
	RetryAfter bool
}

// maxRetryAfterWait caps how long a Retry-After header is honored, so a
// hostile or broken server cannot park a client for minutes.
const maxRetryAfterWait = 5 * time.Second

// Retry is the one retry loop for outbound HTTP exchanges: the JSON-RPC
// fetch plane, the scoring router's replica calls, the cluster score client
// and the explorer crawler all run their attempts through it. fn performs
// one exchange. Retry stops on the first success, on an error that is not
// IsTransient, and when ctx ends, returning ctx.Err() then. When the
// attempts run out, the error wraps the last one, so IsTransient and
// errors.As still see it.
func Retry[T any](ctx context.Context, p RetryPolicy, fn func() (T, error)) (T, error) {
	var zero T
	backoff := p.Backoff
	for attempt := 1; ; attempt++ {
		v, err := fn()
		switch {
		case err == nil:
			return v, nil
		case ctx.Err() != nil:
			return zero, ctx.Err()
		case !IsTransient(err):
			return zero, err
		case attempt >= p.Attempts:
			return zero, fmt.Errorf("ethrpc: failed after %d attempts: %w", attempt, err)
		}
		var hint error
		if p.RetryAfter {
			hint = err
		}
		select {
		case <-ctx.Done():
			return zero, ctx.Err()
		case <-time.After(retryDelay(backoff, hint)):
		}
		backoff *= 2
	}
}

// retryDelay returns the jittered wait before the next attempt: the server's
// Retry-After when lastErr is a 429 that carried one (capped), otherwise the
// caller's exponential backoff.
func retryDelay(backoff time.Duration, lastErr error) time.Duration {
	wait := backoff
	var rl *RateLimitError
	if errors.As(lastErr, &rl) && rl.RetryAfter > 0 {
		wait = rl.RetryAfter
		if wait > maxRetryAfterWait {
			wait = maxRetryAfterWait
		}
	}
	return wait + time.Duration(rand.Int63n(int64(wait)/2+1))
}

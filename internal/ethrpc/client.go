package ethrpc

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
)

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying http.Client (tests inject
// httptest servers or failing transports).
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.http = h }
}

// WithRetries sets the number of attempts per call (default 3) and the base
// backoff between them (default 50ms, doubled each retry with jitter).
func WithRetries(attempts int, backoff time.Duration) ClientOption {
	return func(c *Client) {
		if attempts > 0 {
			c.attempts = attempts
		}
		if backoff > 0 {
			c.backoff = backoff
		}
	}
}

// WithTimeout caps one HTTP exchange (default 10s). The multi-endpoint fetch
// plane uses short timeouts so stragglers surface fast enough to hedge.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.http.Timeout = d
		}
	}
}

// RateLimitError is an HTTP 429 from the endpoint. RetryAfter carries the
// parsed Retry-After header (0 when the server didn't send one); the retry
// loop honors it instead of guessing a backoff, and the multi-endpoint fetch
// plane treats it as the congestion signal that halves an endpoint's AIMD
// concurrency window.
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
// the MultiClient scheduler keys on).
func IsTransient(err error) bool {
	var te *transientError
	return errors.As(err, &te)
}

// maxRetryAfterWait caps how long a Retry-After header is honored, so a
// hostile or broken server cannot park a client for minutes.
const maxRetryAfterWait = 5 * time.Second

// retryDelay returns the jittered wait before the next attempt: the server's
// Retry-After when the previous failure was a 429 that carried one
// (capped), otherwise the caller's exponential backoff.
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

// Client is a minimal JSON-RPC 2.0 client for the eth_* methods the BEM
// needs. It is safe for concurrent use.
type Client struct {
	endpoint string
	http     *http.Client
	attempts int
	backoff  time.Duration
	nextID   atomic.Int64
}

// NewClient returns a client for the given endpoint URL.
func NewClient(endpoint string, opts ...ClientOption) *Client {
	c := &Client{
		endpoint: endpoint,
		http:     &http.Client{Timeout: 10 * time.Second, Transport: NewPooledTransport()},
		attempts: 3,
		backoff:  50 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// NewPooledTransport returns a transport sized for one-endpoint fan-out. The
// stdlib default keeps only 2 idle connections per host, so a worker pool
// hammering a single node re-handshakes constantly; raising the idle pool
// is worth >2x throughput on the extraction and monitoring hot paths. The
// explorer crawler shares it.
func NewPooledTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 256
	return t
}

// wireRequest is the JSON-RPC 2.0 request envelope.
type wireRequest struct {
	JSONRPC string `json:"jsonrpc"`
	ID      int64  `json:"id"`
	Method  string `json:"method"`
	Params  []any  `json:"params"`
}

// wireResponse is the JSON-RPC 2.0 response envelope. Result decodes
// straight into the method's Go type, so a response is decoded once, by the
// single json.Unmarshal in post. An absent result decodes like null, except
// for hexData, which records whether it was present.
type wireResponse[T any] struct {
	ID     int64     `json:"id"`
	Result T         `json:"result"`
	Error  *rpcError `json:"error"`
}

// call performs one JSON-RPC call and decodes its result into T, with retry
// on transport errors, torn bodies, 429s and 5xx statuses. JSON-RPC
// application errors are not retried: the server has answered
// authoritatively.
func call[T any](ctx context.Context, c *Client, method string, params ...any) (T, error) {
	var zero T
	if params == nil {
		params = []any{}
	}
	reqBody, err := json.Marshal(wireRequest{JSONRPC: "2.0", ID: c.nextID.Add(1), Method: method, Params: params})
	if err != nil {
		return zero, fmt.Errorf("ethrpc: marshal request: %w", err)
	}
	var resp wireResponse[T]
	if err := c.post(ctx, reqBody, &resp); err != nil {
		return zero, fmt.Errorf("ethrpc: %s: %w", method, err)
	}
	if resp.Error != nil {
		return zero, resp.Error
	}
	return resp.Result, nil
}

// post runs the retry loop around one HTTP exchange and decodes the
// response body into `into` with one json.Unmarshal. Unmarshal checks the
// whole document before it writes anything, so a syntax error means a torn
// body (truncated or garbled in transit) that left `into` untouched: it is
// retried like a transport fault. Any other decode error is well-formed JSON
// of the wrong shape, the server's authoritative answer, and is not retried.
// Retries sleep a jittered exponential backoff, except after a 429 that
// carried a Retry-After header — the server has named its price, so that
// wait (capped, jittered) is honored instead.
func (c *Client) post(ctx context.Context, body []byte, into any) error {
	var lastErr error
	backoff := c.backoff
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(retryDelay(backoff, lastErr)):
			}
			backoff *= 2
		}
		raw, retryable, err := c.once(ctx, body)
		if err == nil {
			if err = json.Unmarshal(raw, into); err == nil {
				return nil
			}
			var torn *json.SyntaxError
			retryable = errors.As(err, &torn)
			err = fmt.Errorf("decode response: %w", err)
		}
		lastErr = err
		if !retryable {
			return err
		}
	}
	return &transientError{fmt.Errorf("failed after %d attempts: %w", c.attempts, lastErr)}
}

// maxDrainBytes bounds how much of a non-200 body is read and discarded so
// the transport can keep the connection alive.
const maxDrainBytes = 64 << 10

// CloseBody closes resp's body, first draining at most 64 KiB of it after a
// non-200 status. Closing an unread body makes the transport drop the
// connection, so a 429 storm would open one TCP connection per retry. A
// failed drain costs only the connection, so its error is dropped. Every
// retried HTTP exchange (this client, the scoring cluster's client and
// router) closes its responses through it.
func CloseBody(resp *http.Response) {
	if resp.StatusCode != http.StatusOK {
		_, _ = io.CopyN(io.Discard, resp.Body, maxDrainBytes)
	}
	resp.Body.Close()
}

func (c *Client) once(ctx context.Context, body []byte) (raw []byte, retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, false, fmt.Errorf("build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, true, fmt.Errorf("transport: %w", err)
	}
	defer CloseBody(resp)
	if resp.StatusCode >= 500 {
		return nil, true, fmt.Errorf("server status %d", resp.StatusCode)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		// Rate-limited providers (Infura, Alchemy, …) answer 429 under
		// burst; surface the Retry-After so the retry loop can honor it.
		return nil, true, &RateLimitError{RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("unexpected status %d", resp.StatusCode)
	}
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, true, fmt.Errorf("read response: %w", err)
	}
	return raw, false, nil
}

// parseRetryAfter reads a Retry-After value in seconds. Fractional seconds
// are accepted (the simulated endpoints advertise sub-second refills);
// HTTP-date forms and garbage parse as 0, i.e. "not stated".
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}

// GetCode fetches the deployed bytecode at addr ("latest" block). A nil,
// nil return means no code is deployed there (an EOA).
func (c *Client) GetCode(ctx context.Context, addr chain.Address) ([]byte, error) {
	res, err := call[hexData](ctx, c, "eth_getCode", addr.String(), "latest")
	if err != nil {
		return nil, err
	}
	return res.code()
}

// GetCodeBatch fetches deployed bytecode for many addresses in one JSON-RPC
// 2.0 batch round trip (the Watchtower's fetch hot path: amortizing the HTTP
// exchange across a window's deployments is worth ~an order of magnitude in
// contracts/sec). Results align with addrs; nil entries are EOAs. One
// failed item fails the batch.
func (c *Client) GetCodeBatch(ctx context.Context, addrs []chain.Address) ([][]byte, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	n := int64(len(addrs))
	base := c.nextID.Add(n) - n + 1
	reqs := make([]wireRequest, len(addrs))
	for i, a := range addrs {
		reqs[i] = wireRequest{JSONRPC: "2.0", ID: base + int64(i), Method: "eth_getCode", Params: []any{a.String(), "latest"}}
	}
	reqBody, err := json.Marshal(reqs)
	if err != nil {
		return nil, fmt.Errorf("ethrpc: marshal batch: %w", err)
	}
	resps := make([]wireResponse[hexData], 0, len(addrs))
	if err := c.post(ctx, reqBody, &resps); err != nil {
		return nil, fmt.Errorf("ethrpc: eth_getCode batch: %w", err)
	}
	return codesByID(resps, base, len(addrs))
}

// codesByID puts a batch of eth_getCode responses into request order (ids
// base, base+1, …). The spec lets a server reorder a batch, so items are
// matched by id: the last duplicate of an id wins and unknown ids are
// ignored. A missing item, an item-level error or a result that is absent
// or not hex fails the batch.
func codesByID(resps []wireResponse[hexData], base int64, n int) ([][]byte, error) {
	byID := make([]*wireResponse[hexData], n)
	for j := range resps {
		if k := resps[j].ID - base; k >= 0 && k < int64(n) {
			byID[k] = &resps[j]
		}
	}
	out := make([][]byte, n)
	for i, resp := range byID {
		if resp == nil {
			return nil, fmt.Errorf("ethrpc: eth_getCode batch: missing response for item %d", i)
		}
		if resp.Error != nil {
			return nil, fmt.Errorf("ethrpc: eth_getCode batch item %d: %w", i, resp.Error)
		}
		code, err := resp.Result.code()
		if err != nil {
			return nil, fmt.Errorf("%w (batch item %d)", err, i)
		}
		out[i] = code
	}
	return out, nil
}

// hexData is a hex byte string of a response (an eth_getCode result, a tx's
// input), decoded straight from the response bytes into its own []byte: one
// allocation per payload and no intermediate string. Its UnmarshalJSON never
// fails the surrounding decode; the outcome is kept for the caller, because a
// batch may carry items whose content must not matter (unknown ids,
// overwritten duplicates).
type hexData struct {
	b    []byte
	err  error
	seen bool // the field was present, null included
}

func (h *hexData) UnmarshalJSON(lit []byte) error {
	h.b, h.err = decodeHexLiteral(lit)
	h.seen = true
	return nil
}

// code returns an eth_getCode result: nil for an EOA ("0x", "" or null), an
// error when the result was absent, not a string or not hex. An absent
// result must never read as an EOA.
func (h *hexData) code() ([]byte, error) {
	switch {
	case !h.seen:
		return nil, errors.New("ethrpc: eth_getCode response has neither result nor error")
	case h.err != nil:
		return nil, fmt.Errorf("ethrpc: bad eth_getCode result: %w", h.err)
	}
	return h.b, nil
}

// decodeHexLiteral decodes a JSON literal holding hex data: null is no data
// and anything but a string is an error. The string is decoded from the raw
// response bytes. Only when that fails and the literal holds a `\` escape is
// it unquoted by encoding/json and decoded again: without an escape the raw
// bytes are the string, except invalid UTF-8, which fails as hex either way.
func decodeHexLiteral(lit []byte) ([]byte, error) {
	if string(lit) == "null" {
		return nil, nil
	}
	if len(lit) < 2 || lit[0] != '"' {
		return nil, fmt.Errorf("%.16s is not a string", lit)
	}
	b, err := decodeHex(lit[1 : len(lit)-1])
	if err != nil && bytes.IndexByte(lit, '\\') >= 0 {
		var s string
		if err := json.Unmarshal(lit, &s); err != nil {
			return nil, err
		}
		return decodeHex([]byte(s))
	}
	return b, err
}

// decodeHex decodes hex data the way evm.DecodeHex does, except that "" and
// "0x" are no data (nil): surrounding whitespace is trimmed, then a "0x" and
// a "0X" prefix, and an even number of hex digits must remain.
func decodeHex(s []byte) ([]byte, error) {
	if len(s) == 0 || string(s) == "0x" {
		return nil, nil
	}
	s = bytes.TrimPrefix(bytes.TrimPrefix(bytes.TrimSpace(s), []byte("0x")), []byte("0X"))
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("odd-length hex (%d nibbles)", len(s))
	}
	b := make([]byte, len(s)/2)
	if _, err := hex.Decode(b, s); err != nil {
		return nil, err
	}
	return b, nil
}

// BlockNumber returns the node's head block number.
func (c *Client) BlockNumber(ctx context.Context) (uint64, error) {
	s, err := call[string](ctx, c, "eth_blockNumber")
	if err != nil {
		return 0, err
	}
	return parseHexQuantity(s)
}

// ChainID returns the node's chain identifier.
func (c *Client) ChainID(ctx context.Context) (uint64, error) {
	s, err := call[string](ctx, c, "eth_chainId")
	if err != nil {
		return 0, err
	}
	return parseHexQuantity(s)
}

// parseHexUint reads a JSON hex-quantity string.
func parseHexUint(raw json.RawMessage) (uint64, error) {
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return 0, fmt.Errorf("ethrpc: result not a string: %w", err)
	}
	return parseHexQuantity(s)
}

// parseHexQuantity parses a hex quantity ("0x1a"; some nodes omit the 0x).
func parseHexQuantity(s string) (uint64, error) {
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 64)
	if err != nil {
		return 0, fmt.Errorf("ethrpc: bad hex quantity %q: %w", s, err)
	}
	return v, nil
}

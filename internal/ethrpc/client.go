package ethrpc

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
)

// client is a minimal JSON-RPC 2.0 client for the eth_* methods the BEM
// needs. Each call is exactly one HTTP exchange; retries belong to the
// MultiClient's plane. Request ids number a call's items from 1: every
// exchange carries its own response, so ids need only be unique within a
// batch, and a retried call re-sends the same body. It is safe for
// concurrent use.
type client struct {
	endpoint string
	http     *http.Client
}

// newClient returns a client for the given endpoint URL. One exchange is
// capped at 10s.
func newClient(endpoint string) *client {
	return &client{
		endpoint: endpoint,
		http:     &http.Client{Timeout: 10 * time.Second, Transport: NewPooledTransport()},
	}
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

// call performs one JSON-RPC call and decodes its result into T. A JSON-RPC
// application error is the server's authoritative answer and is returned
// as such.
func call[T any](ctx context.Context, c *client, method string, params ...any) (T, error) {
	var zero T
	if params == nil {
		params = []any{}
	}
	reqBody, err := json.Marshal(wireRequest{JSONRPC: "2.0", ID: 1, Method: method, Params: params})
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

// post performs one HTTP exchange and decodes the response body into `into`
// with one json.Unmarshal. Transport faults, 5xx statuses and 429s (with
// their Retry-After) are transient. Unmarshal checks the whole document
// before it writes anything, so a syntax error means a torn body (truncated
// or garbled in transit) that left `into` untouched: it is transient too.
// Any other decode error is well-formed JSON of the wrong shape, the
// server's authoritative answer, and so is any other status.
func (c *client) post(ctx context.Context, body []byte, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.endpoint, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return MarkTransient(fmt.Errorf("transport: %w", err))
	}
	defer CloseBody(resp)
	switch {
	case resp.StatusCode >= 500:
		return MarkTransient(fmt.Errorf("server status %d", resp.StatusCode))
	case resp.StatusCode == http.StatusTooManyRequests:
		// Rate-limited providers (Infura, Alchemy, …) answer 429 under
		// burst; surface the Retry-After so the retry loop can honor it.
		return MarkTransient(&RateLimitError{RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))})
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("unexpected status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return MarkTransient(fmt.Errorf("read response: %w", err))
	}
	if err := json.Unmarshal(raw, into); err != nil {
		var torn *json.SyntaxError
		if errors.As(err, &torn) {
			return MarkTransient(fmt.Errorf("decode response: %w", err))
		}
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// maxDrainBytes bounds how much of a non-200 body is read and discarded so
// the transport can keep the connection alive.
const maxDrainBytes = 64 << 10

// CloseBody closes resp's body, first draining at most 64 KiB of it after a
// non-200 status. Closing an unread body makes the transport drop the
// connection, so a 429 storm would open one TCP connection per retry. A
// failed drain costs only the connection, so its error is dropped. Every
// outbound HTTP exchange (this client, the scoring cluster's client and
// router, the explorer crawler) closes its responses through it.
func CloseBody(resp *http.Response) {
	if resp.StatusCode != http.StatusOK {
		_, _ = io.CopyN(io.Discard, resp.Body, maxDrainBytes)
	}
	resp.Body.Close()
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
func (c *client) GetCode(ctx context.Context, addr chain.Address) ([]byte, error) {
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
func (c *client) GetCodeBatch(ctx context.Context, addrs []chain.Address) ([][]byte, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	reqs := make([]wireRequest, len(addrs))
	for i, a := range addrs {
		reqs[i] = wireRequest{JSONRPC: "2.0", ID: int64(i) + 1, Method: "eth_getCode", Params: []any{a.String(), "latest"}}
	}
	reqBody, err := json.Marshal(reqs)
	if err != nil {
		return nil, fmt.Errorf("ethrpc: marshal batch: %w", err)
	}
	resps := make([]wireResponse[hexData], 0, len(addrs))
	if err := c.post(ctx, reqBody, &resps); err != nil {
		return nil, fmt.Errorf("ethrpc: eth_getCode batch: %w", err)
	}
	return codesByID(resps, len(addrs))
}

// codesByID puts a batch of eth_getCode responses into request order (ids
// 1, 2, …). The spec lets a server reorder a batch, so items are
// matched by id: the last duplicate of an id wins and unknown ids are
// ignored. A missing item, an item-level error or a result that is absent
// or not hex fails the batch.
func codesByID(resps []wireResponse[hexData], n int) ([][]byte, error) {
	byID := make([]*wireResponse[hexData], n)
	for j := range resps {
		if k := resps[j].ID - 1; k >= 0 && k < int64(n) {
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
func (c *client) BlockNumber(ctx context.Context) (uint64, error) {
	s, err := call[string](ctx, c, "eth_blockNumber")
	if err != nil {
		return 0, err
	}
	return parseHexQuantity(s)
}

// ChainID returns the node's chain identifier.
func (c *client) ChainID(ctx context.Context) (uint64, error) {
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

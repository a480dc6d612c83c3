package ethrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/evm"
	"github.com/phishinghook/phishinghook/internal/synth"
)

func testChain(t *testing.T) *chain.Chain {
	t.Helper()
	c, err := chain.Build(chain.BuildConfig{
		Generator:      synth.NewGenerator(synth.DefaultConfig(5)),
		Timeline:       synth.ScaledTimeline(40, 26),
		BenignPerMonth: chain.UniformBenign(26),
		ProxyFraction:  0.1,
	})
	if err != nil {
		t.Fatalf("build chain: %v", err)
	}
	return c
}

// retrying returns a one-endpoint MultiClient whose plane makes up to
// attempts exchanges per call: the retry contract lives there, while the
// client behind it makes exactly one exchange.
func retrying(t *testing.T, url string, attempts int, backoff time.Duration) *MultiClient {
	t.Helper()
	m, err := NewMultiClient([]string{url}, WithPlaneRetries(attempts, backoff))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGetCodeRoundTrip(t *testing.T) {
	c := testChain(t)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()
	client := newClient(srv.URL)
	ctx := context.Background()

	for _, ct := range c.All()[:10] {
		code, err := client.GetCode(ctx, ct.Addr)
		if err != nil {
			t.Fatalf("GetCode(%s): %v", ct.Addr, err)
		}
		if !bytes.Equal(code, ct.Code) {
			t.Fatalf("GetCode(%s) returned %d bytes, want %d", ct.Addr, len(code), len(ct.Code))
		}
	}
}

func TestGetCodeAbsentAddress(t *testing.T) {
	c := testChain(t)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()
	client := newClient(srv.URL)
	code, err := client.GetCode(context.Background(), chain.DeriveAddress(999, 999))
	if err != nil {
		t.Fatalf("GetCode absent: %v", err)
	}
	if code != nil {
		t.Errorf("absent address returned %d bytes, want nil", len(code))
	}
}

func TestBlockNumberAndChainID(t *testing.T) {
	c := testChain(t)
	srv := httptest.NewServer(NewServer(c, 1337))
	defer srv.Close()
	client := newClient(srv.URL)
	ctx := context.Background()

	bn, err := client.BlockNumber(ctx)
	if err != nil {
		t.Fatalf("BlockNumber: %v", err)
	}
	if bn != c.HeadBlock() {
		t.Errorf("BlockNumber = %d, want %d", bn, c.HeadBlock())
	}
	id, err := client.ChainID(ctx)
	if err != nil {
		t.Fatalf("ChainID: %v", err)
	}
	if id != 1337 {
		t.Errorf("ChainID = %d, want 1337", id)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	c := testChain(t)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()

	post := func(body string) map[string]any {
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return out
	}

	tests := []struct {
		name, body string
	}{
		{"parse error", "{not json"},
		{"unknown method", `{"jsonrpc":"2.0","id":1,"method":"eth_call","params":[]}`},
		{"bad params arity", `{"jsonrpc":"2.0","id":1,"method":"eth_getCode","params":[]}`},
		{"bad address", `{"jsonrpc":"2.0","id":1,"method":"eth_getCode","params":["0x12","latest"]}`},
		{"bad block tag", `{"jsonrpc":"2.0","id":1,"method":"eth_getCode","params":["0x0000000000000000000000000000000000000001","zzz"]}`},
	}
	for _, tt := range tests {
		out := post(tt.body)
		if out["error"] == nil {
			t.Errorf("%s: no error in response %v", tt.name, out)
		}
	}
}

func TestServerRejectsGET(t *testing.T) {
	c := testChain(t)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	c := testChain(t)
	inner := NewServer(c, 1)
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	client := retrying(t, flaky.URL, 4, time.Millisecond)
	if _, err := client.BlockNumber(context.Background()); err != nil {
		t.Fatalf("BlockNumber through flaky server: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3 (2 failures + success)", calls.Load())
	}
}

func TestClientDoesNotRetryRPCErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"jsonrpc":"2.0","id":1,"error":{"code":-32601,"message":"nope"}}`))
	}))
	defer srv.Close()
	client := retrying(t, srv.URL, 5, time.Millisecond)
	if _, err := client.BlockNumber(context.Background()); err == nil {
		t.Fatal("expected error")
	}
	if calls.Load() != 1 {
		t.Errorf("client retried an application error: %d calls", calls.Load())
	}
}

func TestClientHonorsContextCancellation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
	}))
	defer srv.Close()
	client := newClient(srv.URL)
	client.http = &http.Client{}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.BlockNumber(ctx)
	if err == nil {
		t.Fatal("expected context error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

func TestClientMalformedResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("{truncated"))
	}))
	defer srv.Close()
	client := newClient(srv.URL)
	if _, err := client.BlockNumber(context.Background()); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestRequestCounter(t *testing.T) {
	c := testChain(t)
	s := NewServer(c, 1)
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := newClient(srv.URL)
	for i := 0; i < 5; i++ {
		if _, err := client.BlockNumber(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if s.Requests() != 5 {
		t.Errorf("Requests = %d, want 5", s.Requests())
	}
}

func TestClientRetriesThrough429(t *testing.T) {
	c := testChain(t)
	inner := NewServer(c, 7)
	var calls atomic.Int64
	limited := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			// Fractional Retry-After keeps the test fast; the client honors
			// it (see TestClientHonorsRetryAfter for the timing contract).
			w.Header().Set("Retry-After", "0.02")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer limited.Close()

	client := retrying(t, limited.URL, 4, time.Millisecond)
	id, err := client.ChainID(context.Background())
	if err != nil {
		t.Fatalf("ChainID through 429s: %v", err)
	}
	if id != 7 {
		t.Errorf("ChainID = %d, want 7", id)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3 (2 × 429 + success)", calls.Load())
	}
}

// TestClientHonorsRetryAfter pins the backoff contract: a 429 carrying
// Retry-After makes the client wait at least that long (instead of its
// default exponential guess), while the cap keeps hostile values bounded.
func TestClientHonorsRetryAfter(t *testing.T) {
	c := testChain(t)
	inner := NewServer(c, 7)
	var calls atomic.Int64
	limited := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0.3")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer limited.Close()

	// Base backoff of 1ms: without honoring Retry-After the retry would land
	// almost immediately.
	client := retrying(t, limited.URL, 3, time.Millisecond)
	t0 := time.Now()
	if _, err := client.ChainID(context.Background()); err != nil {
		t.Fatalf("ChainID: %v", err)
	}
	if elapsed := time.Since(t0); elapsed < 300*time.Millisecond {
		t.Errorf("retry after %v, want >= 300ms (the advertised Retry-After)", elapsed)
	}
	if d := retryDelay(time.Millisecond, &RateLimitError{RetryAfter: time.Hour}); d > maxRetryAfterWait+maxRetryAfterWait/2 {
		t.Errorf("hostile Retry-After honored for %v, cap is %v plus jitter", d, maxRetryAfterWait)
	}
}

// TestServerRateLimitEndToEnd drives the client against a sim server with a
// token bucket: the bucket must 429 a burst (with a Retry-After the client
// honors), and the retrying client must still land every call.
func TestServerRateLimitEndToEnd(t *testing.T) {
	c := testChain(t)
	s := NewServer(c, 1, WithServerRateLimit(200, 20))
	srv := httptest.NewServer(s)
	defer srv.Close()

	client := retrying(t, srv.URL, 5, time.Millisecond)
	ctx := context.Background()
	all := c.All()
	addrs := make([]chain.Address, 0, 30)
	for _, ct := range all {
		addrs = append(addrs, ct.Addr)
		if len(addrs) == 30 {
			break
		}
	}
	// 5 batches of 30 items against a 20-token bucket refilling at 200/s:
	// the burst must trip the limiter, and honoring Retry-After must carry
	// every batch through within the retry budget.
	for i := 0; i < 5; i++ {
		codes, err := client.GetCodeBatch(ctx, addrs)
		if err != nil {
			t.Fatalf("batch %d through rate limiter: %v", i, err)
		}
		for j, ct := range all[:len(addrs)] {
			if !bytes.Equal(codes[j], ct.Code) {
				t.Fatalf("batch %d item %d corrupted", i, j)
			}
		}
	}
	if s.RateLimited() == 0 {
		t.Error("token bucket never fired for a burst beyond its depth")
	}
	if s.Requests() != 5*int64(len(addrs)) {
		t.Errorf("served items = %d, want %d (rejected exchanges must not count)", s.Requests(), 5*len(addrs))
	}
}

func TestClient429ExhaustsRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "rate limited", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	client := retrying(t, srv.URL, 3, time.Millisecond)
	if _, err := client.BlockNumber(context.Background()); err == nil {
		t.Fatal("expected error after exhausting retries")
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want all 3 attempts", calls.Load())
	}
}

func TestHexQuantityParsing(t *testing.T) {
	// BlockNumber and ChainID share parseHexUint; malformed results from a
	// broken node must surface as errors, not zero values.
	for _, tc := range []struct {
		name, result string
		wantErr      bool
	}{
		{"happy", `"0x1a"`, false},
		{"no prefix", `"ff"`, false}, // some nodes omit 0x; hex still parses
		{"not hex", `"0xzz"`, true},
		{"empty", `""`, true},
		{"not a string", `42`, true},
		{"object result", `{"v":1}`, true},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"jsonrpc":"2.0","id":1,"result":` + tc.result + `}`))
		}))
		client := newClient(srv.URL)
		bn, err := client.BlockNumber(context.Background())
		if tc.wantErr && err == nil {
			t.Errorf("%s: BlockNumber(%s) = %d, want error", tc.name, tc.result, bn)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("%s: BlockNumber(%s): %v", tc.name, tc.result, err)
		}
		id, err := client.ChainID(context.Background())
		if tc.wantErr && err == nil {
			t.Errorf("%s: ChainID(%s) = %d, want error", tc.name, tc.result, id)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("%s: ChainID(%s): %v", tc.name, tc.result, err)
		}
		srv.Close()
	}
}

func TestGetCodeBatchRoundTrip(t *testing.T) {
	c := testChain(t)
	s := NewServer(c, 1)
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := newClient(srv.URL)

	all := c.All()
	addrs := make([]chain.Address, 0, 12)
	for _, ct := range all[:10] {
		addrs = append(addrs, ct.Addr)
	}
	addrs = append(addrs, chain.DeriveAddress(999, 999)) // absent → nil entry
	codes, err := client.GetCodeBatch(context.Background(), addrs)
	if err != nil {
		t.Fatalf("GetCodeBatch: %v", err)
	}
	if len(codes) != len(addrs) {
		t.Fatalf("got %d results, want %d", len(codes), len(addrs))
	}
	for i, ct := range all[:10] {
		if !bytes.Equal(codes[i], ct.Code) {
			t.Fatalf("batch item %d: %d bytes, want %d", i, len(codes[i]), len(ct.Code))
		}
	}
	if codes[10] != nil {
		t.Errorf("absent address returned %d bytes, want nil", len(codes[10]))
	}
	// One HTTP exchange, but the server counts every item as a served call.
	if s.Requests() != int64(len(addrs)) {
		t.Errorf("Requests = %d, want %d batch items", s.Requests(), len(addrs))
	}
	if out, err := client.GetCodeBatch(context.Background(), nil); err != nil || out != nil {
		t.Errorf("empty batch: (%v, %v), want (nil, nil)", out, err)
	}
}

func TestBatchItemErrorFailsBatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`[{"jsonrpc":"2.0","id":1,"result":"0x60"},{"jsonrpc":"2.0","id":2,"error":{"code":-32602,"message":"bad address"}}]`))
	}))
	defer srv.Close()
	client := newClient(srv.URL)
	_, err := client.GetCodeBatch(context.Background(),
		[]chain.Address{chain.DeriveAddress(1, 1), chain.DeriveAddress(1, 2)})
	if err == nil {
		t.Fatal("item-level error should fail the batch")
	}
	if !strings.Contains(err.Error(), "bad address") {
		t.Errorf("error should carry the item message: %v", err)
	}
}

// scriptedServer answers the i-th request with bodies[i] (the last body once
// the script runs out) and counts the requests it served.
func scriptedServer(t *testing.T, bodies ...string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		i := int(calls.Add(1)) - 1
		if i >= len(bodies) {
			i = len(bodies) - 1
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, bodies[i])
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// TestClientRetriesTornBodyWithoutStaleFields pins the retry contract for a
// torn body: the client retries it and returns the good answer after
// exactly two requests. The torn bodies carry an error for id 1 (and, in
// the batch, code for id 2); the good bodies answer id 1 with no error key
// (and id 2 with "0x"). Had a torn body been even partly decoded, the error
// or the code would outlive the retry.
func TestClientRetriesTornBodyWithoutStaleFields(t *testing.T) {
	ctx := context.Background()
	t.Run("single", func(t *testing.T) {
		srv, calls := scriptedServer(t,
			`{"jsonrpc":"2.0","id":1,"error":{"code":-32000,"message":"stale"},"result":"0x60`,
			`{"jsonrpc":"2.0","id":1,"result":"0x"}`)
		client := retrying(t, srv.URL, 3, time.Millisecond)
		code, err := client.GetCode(ctx, chain.DeriveAddress(1, 1))
		if err != nil || code != nil {
			t.Fatalf("GetCode = (%x, %v), want the good body's EOA", code, err)
		}
		if calls.Load() != 2 {
			t.Errorf("server saw %d requests, want 2 (torn + good)", calls.Load())
		}
	})
	t.Run("batch", func(t *testing.T) {
		srv, calls := scriptedServer(t,
			`[{"jsonrpc":"2.0","id":1,"error":{"code":-32000,"message":"stale"}},{"jsonrpc":"2.0","id":2,"result":"0x6001"},{"id":`,
			`[{"jsonrpc":"2.0","id":2,"result":"0x"},{"jsonrpc":"2.0","id":1,"result":"0x60"}]`)
		client := retrying(t, srv.URL, 3, time.Millisecond)
		codes, err := client.GetCodeBatch(ctx, []chain.Address{chain.DeriveAddress(1, 1), chain.DeriveAddress(1, 2)})
		if err != nil {
			t.Fatalf("GetCodeBatch: %v", err)
		}
		if !bytes.Equal(codes[0], []byte{0x60}) || codes[1] != nil {
			t.Errorf("GetCodeBatch = %x, want [60 <nil>]", codes)
		}
		if calls.Load() != 2 {
			t.Errorf("server saw %d requests, want 2 (torn + good)", calls.Load())
		}
	})
}

// TestClientDoesNotRetryAuthoritativeAnswers pins the other half of the
// contract: a well-formed body is the server's answer even when it is
// unusable. Each case must fail after exactly one request, must not be
// transient (the fetch plane would rotate endpoints on it), and must return
// no codes — in particular an item with neither result nor error must never
// read as an EOA.
func TestClientDoesNotRetryAuthoritativeAnswers(t *testing.T) {
	addrs := []chain.Address{chain.DeriveAddress(1, 1), chain.DeriveAddress(1, 2)}
	for _, tc := range []struct{ name, body string }{
		{"wrong shape", `{"jsonrpc":"2.0","id":1,"result":"0x60"}`},
		{"bad hex item", `[{"jsonrpc":"2.0","id":1,"result":"0x60"},{"jsonrpc":"2.0","id":2,"result":"0x6g"}]`},
		{"item without result or error", `[{"jsonrpc":"2.0","id":1,"result":"0x60"},{"jsonrpc":"2.0","id":2}]`},
	} {
		srv, calls := scriptedServer(t, tc.body)
		client := retrying(t, srv.URL, 3, time.Millisecond)
		codes, err := client.GetCodeBatch(context.Background(), addrs)
		if err == nil || codes != nil {
			t.Errorf("%s: GetCodeBatch = (%x, %v), want no codes and an error", tc.name, codes, err)
		}
		if IsTransient(err) {
			t.Errorf("%s: %v classified transient", tc.name, err)
		}
		if calls.Load() != 1 {
			t.Errorf("%s: server saw %d requests, want 1", tc.name, calls.Load())
		}
	}

	srv, calls := scriptedServer(t, `{"jsonrpc":"2.0","id":1,"result":42}`)
	client := retrying(t, srv.URL, 3, time.Millisecond)
	if _, err := client.BlockNumber(context.Background()); err == nil || IsTransient(err) || calls.Load() != 1 {
		t.Errorf("numeric eth_blockNumber result: err=%v after %d requests, want one authoritative failure", err, calls.Load())
	}
}

// TestClientKeepsConnectionAcrossErrorStatuses pins the bounded drain: four
// 429s (or 502s) and then a 200 must travel over one TCP connection. A
// client that closes an unread error body makes the transport drop the
// connection, so every retry would dial a new one.
func TestClientKeepsConnectionAcrossErrorStatuses(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusBadGateway} {
		var conns, calls atomic.Int64
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) <= 4 {
				http.Error(w, strings.Repeat("busy ", 200), status)
				return
			}
			_, _ = io.WriteString(w, `{"jsonrpc":"2.0","id":5,"result":"0x2a"}`)
		}))
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				conns.Add(1)
			}
		}
		srv.Start()
		client := retrying(t, srv.URL, 5, 2*time.Millisecond)
		bn, err := client.BlockNumber(context.Background())
		srv.Close()
		if err != nil || bn != 42 {
			t.Fatalf("status %d: BlockNumber = (%d, %v), want 42", status, bn, err)
		}
		if calls.Load() != 5 || conns.Load() != 1 {
			t.Errorf("status %d: %d requests over %d connections, want 5 over 1", status, calls.Load(), conns.Load())
		}
	}
}

// codeBatchBody renders an eth_getCode batch response for ids 1..n in
// reverse order, each result size bytes of pseudo-random code.
func codeBatchBody(n, size int) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	items := make([]map[string]any, n)
	for i := range items {
		code := make([]byte, size)
		rng.Read(code)
		items[n-1-i] = map[string]any{"jsonrpc": "2.0", "id": i + 1, "result": evm.EncodeHex(code)}
	}
	body, err := json.Marshal(items)
	if err != nil {
		panic(err)
	}
	return body
}

// decodeCodeBatch is GetCodeBatch's decode of a response body for ids
// 1..n: the one json.Unmarshal that post runs, then the id match.
func decodeCodeBatch(body []byte, n int) ([][]byte, error) {
	resps := make([]wireResponse[hexData], 0, n)
	if err := json.Unmarshal(body, &resps); err != nil {
		return nil, err
	}
	return codesByID(resps, n)
}

// TestGetCodeBatchDecodeAllocs pins the decode's allocation budget: one
// allocation per bytecode (its []byte) plus a constant that does not grow
// with the batch.
func TestGetCodeBatchDecodeAllocs(t *testing.T) {
	const fixed = 12
	excess := func(n int) float64 {
		body := codeBatchBody(n, 256)
		return testing.AllocsPerRun(20, func() {
			if _, err := decodeCodeBatch(body, n); err != nil {
				t.Fatal(err)
			}
		}) - float64(n)
	}
	small, large := excess(8), excess(64)
	if small > fixed || large > small {
		t.Errorf("decode allocates %.0f beyond one per bytecode for 8 items and %.0f for 64, want a constant <= %d",
			small, large, fixed)
	}
}

var decodedCodes [][]byte

// BenchmarkGetCodeBatchDecode decodes a 64-item, ~128 KB eth_getCode batch
// response.
func BenchmarkGetCodeBatchDecode(b *testing.B) {
	const n = 64
	body := codeBatchBody(n, 980)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codes, err := decodeCodeBatch(body, n)
		if err != nil {
			b.Fatal(err)
		}
		decodedCodes = codes
	}
}

// bodyTransport answers every request with a 200 carrying the same body.
type bodyTransport []byte

func (t bodyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(t))}, nil
}

// oracleCodes decodes an eth_getCode batch body for ids 1..n with
// encoding/json and evm.DecodeHex alone, the way the client decoded before
// it read hex in place: raw results matched by id (the last duplicate wins,
// unknown ids are ignored), then a string unmarshal and DecodeHex per
// result. The result is held raw, not as a *string, because null is an EOA
// while an absent result fails the batch. ok is false when the batch fails.
func oracleCodes(body []byte, n int) (codes [][]byte, ok bool) {
	var items []struct {
		ID     int64           `json:"id"`
		Result json.RawMessage `json:"result"`
		Error  *rpcError       `json:"error"`
	}
	if json.Unmarshal(body, &items) != nil {
		return nil, false
	}
	byID := map[int64]int{}
	for j := range items {
		byID[items[j].ID] = j
	}
	for id := int64(1); id <= int64(n); id++ {
		if j, found := byID[id]; !found || items[j].Error != nil {
			return nil, false
		}
	}
	codes = make([][]byte, n)
	for i := range codes {
		var s string
		if json.Unmarshal(items[byID[int64(i+1)]].Result, &s) != nil {
			return nil, false
		}
		if s == "" || s == "0x" {
			continue
		}
		code, err := evm.DecodeHex(s)
		if err != nil {
			return nil, false
		}
		codes[i] = code
	}
	return codes, true
}

// FuzzGetCodeBatchDecode feeds arbitrary response bodies to GetCodeBatch
// and to oracleCodes. Both must agree on success and, byte for byte, on the
// codes, nil (an EOA) versus empty included; a failure must be transient
// exactly when the body is not valid JSON (a torn body).
func FuzzGetCodeBatchDecode(f *testing.F) {
	for _, seed := range []struct {
		n    uint8
		body string
	}{
		{1, `[{"jsonrpc":"2.0","id":1,"result":"0x"}]`},
		{1, `[{"id":1,"result":""}]`},
		{1, `[{"id":1,"result":null}]`},
		{1, `[{"id":1}]`},
		{1, `[{"id":1,"result":"0X6001"}]`},
		{1, `[{"id":1,"result":"0x0X"}]`},
		{1, `[{"id":1,"result":"0x60AbCD"}]`},
		{1, `[{"id":1,"result":"0x600"}]`},
		{1, `[{"id":1,"result":"0x6z"}]`},
		{1, `[{"id":1,"result":" 0x6001 "}]`},
		{1, `[{"id":1,"result":"\t0x60\n"}]`},
		{1, "[{\"id\":1,\"result\":\"\u00a00x60\"}]"},
		{1, "[{\"id\":1,\"result\":\"\xc2\xa00x60\xff\"}]"},
		{1, `[{"id":1,"result":"\u0030x60"}]`},
		{1, `[{"id":1,"result":"0x\u0036\u0030"}]`},
		{1, `[{"id":1,"result":42}]`},
		{1, `[{"id":1,"result":{"code":"0x60"}}]`},
		{1, `[{"id":1,"result":"0x60","result":null}]`},
		{2, `[{"id":2,"result":"0x02"},{"id":1,"result":"0x01"}]`},
		{1, `[{"id":1,"result":"0xzz"},{"id":1,"result":"0x01"}]`},
		{1, `[{"id":1,"result":"0x01"},{"id":1,"result":"0xzz"}]`},
		{1, `[{"id":1,"result":"0x01"},{"id":7,"result":"0xzz"},{"id":-3}]`},
		{2, `[{"id":1,"result":"0x01"}]`},
		{1, `[{"id":1,"error":{"code":-32602,"message":"bad address"}}]`},
		{1, `[{"id":1,"result":"0x01","error":null}]`},
		{2, `[{"id":1,"result":"0xzz"},{"id":2,"error":{"code":1,"message":"x"}}]`},
		{1, `[{"id":"1","result":"0x01"}]`},
		{1, `[{"id":1,"result":"0x6`},
		{1, `{"id":1,"result":"0x60"}`},
		{1, `null`},
		{1, `[]`},
		{1, ``},
	} {
		f.Add(seed.n, []byte(seed.body))
	}
	addrs := []chain.Address{chain.DeriveAddress(1, 1), chain.DeriveAddress(1, 2), chain.DeriveAddress(1, 3), chain.DeriveAddress(1, 4)}
	f.Fuzz(func(t *testing.T, n uint8, body []byte) {
		k := int(n) % len(addrs) // the batch asks for ids 1..k
		if k == 0 {
			k = len(addrs)
		}
		client := newClient("http://node.invalid")
		client.http = &http.Client{Transport: bodyTransport(body)}
		got, err := client.GetCodeBatch(context.Background(), addrs[:k])
		want, ok := oracleCodes(body, k)
		if (err == nil) != ok {
			t.Fatalf("client err = %v, oracle ok = %v", err, ok)
		}
		if err != nil {
			if got != nil {
				t.Fatalf("failed batch returned codes %x", got)
			}
			if IsTransient(err) == json.Valid(body) {
				t.Fatalf("transient = %v for a body with valid JSON = %v: %v", IsTransient(err), json.Valid(body), err)
			}
			return
		}
		for i := range want {
			if (got[i] == nil) != (want[i] == nil) || !bytes.Equal(got[i], want[i]) {
				t.Fatalf("item %d: client %#v, oracle %#v", i, got[i], want[i])
			}
		}
	})
}

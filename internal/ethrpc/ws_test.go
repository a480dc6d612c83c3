package ethrpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
)

// rwc joins a reader and a writer into the connection a socket runs on.
type rwc struct {
	io.Reader
	io.Writer
}

func (rwc) Close() error { return nil }

// readingSocket reads the given wire bytes; whatever it answers goes to out.
func readingSocket(wire []byte, client bool, out io.Writer) *socket {
	conn := rwc{bytes.NewReader(wire), out}
	return newSocket(conn, bufio.NewReader(conn.Reader), client)
}

// writeWire returns what one end puts on the wire for the given frames.
func writeWire(t *testing.T, client bool, op byte, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := newSocket(rwc{nil, &buf}, nil, client).write(op, payloads...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawFrame builds one unmasked frame by hand, fragment bits included.
func rawFrame(fin bool, op byte, payload []byte) []byte {
	b := []byte{op, 0}
	if fin {
		b[0] |= 0x80
	}
	switch n := len(payload); {
	case n < 126:
		b[1] = byte(n)
	case n <= 0xffff:
		b = append(b[:1], 126, byte(n>>8), byte(n))
	default:
		b = append(b[:1], 127, 0, 0, 0, 0, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
	return append(b, payload...)
}

// TestAcceptKeyRFCExample is the handshake example of RFC 6455 §1.3.
func TestAcceptKeyRFCExample(t *testing.T) {
	if got := acceptKey("dGhlIHNhbXBsZSBub25jZQ=="); got != "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" {
		t.Fatalf("acceptKey = %q", got)
	}
}

// TestSocketFrameSizes round-trips every length-encoding boundary in both
// directions: client frames are masked with a fresh key and the server
// unmasks them; server frames go out in the clear.
func TestSocketFrameSizes(t *testing.T) {
	for _, n := range []int{0, 125, 126, 65535, 65536} {
		payload := bytes.Repeat([]byte{'a', 'b', 'c'}, n/3+1)[:n]
		for _, client := range []bool{true, false} {
			wire := writeWire(t, client, opText, payload)
			wantLen := byte(n)
			switch {
			case n >= 65536:
				wantLen = 127
			case n >= 126:
				wantLen = 126
			}
			if wire[0] != 0x80|opText || wire[1]&0x7f != wantLen {
				t.Fatalf("n=%d client=%v: header %x", n, client, wire[:2])
			}
			if masked := wire[1]&0x80 != 0; masked != client {
				t.Fatalf("n=%d: mask bit %v on a frame written by client=%v", n, masked, client)
			}
			if client && n > 0 && bytes.Contains(wire, payload) {
				t.Fatalf("n=%d: client payload crossed the wire unmasked", n)
			}
			got, err := readingSocket(wire, !client, io.Discard).read()
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("n=%d client=%v: read %d bytes, err %v", n, client, len(got), err)
			}
		}
	}
	a, b := writeWire(t, true, opText, []byte("same")), writeWire(t, true, opText, []byte("same"))
	if bytes.Equal(a, b) {
		t.Fatal("two client frames reused a masking key")
	}
}

// TestSocketControlFrames: a ping is answered with a masked pong carrying
// its payload, a pong is skipped, and a close is answered with a close
// echoing the status code before read reports the socket closed.
func TestSocketControlFrames(t *testing.T) {
	wire := append(rawFrame(true, opPing, []byte("hi")), rawFrame(true, opPong, nil)...)
	wire = append(wire, rawFrame(true, opText, []byte("x"))...)
	wire = append(wire, rawFrame(true, opClose, []byte{0x03, 0xe8, 'b', 'y', 'e'})...)
	var out bytes.Buffer
	s := readingSocket(wire, true, &out)
	if msg, err := s.read(); err != nil || string(msg) != "x" {
		t.Fatalf("read = %q, %v", msg, err)
	}
	if _, err := s.read(); !errors.Is(err, errSocketClosed) {
		t.Fatalf("read after close = %v, want errSocketClosed", err)
	}
	// Decode what the client wrote with a server-side reader's framing.
	answers := refFrames(t, out.Bytes())
	if len(answers) != 2 || answers[0].op != opPong || string(answers[0].payload) != "hi" ||
		answers[1].op != opClose || !bytes.Equal(answers[1].payload, []byte{0x03, 0xe8}) {
		t.Fatalf("client answered %+v, want pong(hi) then close(1000)", answers)
	}
}

// TestSocketRefusesForbiddenFrames: every frame a client must refuse ends
// the read with a protocol error.
func TestSocketRefusesForbiddenFrames(t *testing.T) {
	masked := writeWire(t, true, opText, []byte("m"))
	for name, wire := range map[string][]byte{
		"masked server frame": masked,
		"reserved bit":        {0x80 | 0x40 | opText, 0},
		"unknown data opcode": {0x80 | 0x3, 0},
		"unknown control":     {0x80 | 0xB, 0},
		"fragmented control":  rawFrame(false, opPing, nil),
		"oversized control":   rawFrame(true, opPing, make([]byte, 126)),
		"bare continuation":   rawFrame(true, opContinuation, []byte("c")),
		"message inside one":  append(rawFrame(false, opText, []byte("a")), rawFrame(true, opText, []byte("b"))...),
		"64-bit length msb":   {0x80 | opText, 127, 0x80, 0, 0, 0, 0, 0, 0, 1},
	} {
		if _, err := readingSocket(wire, true, io.Discard).read(); !errors.Is(err, errSocketProtocol) {
			t.Errorf("%s: err = %v, want a protocol error", name, err)
		}
	}
}

// TestSocketContinuationCap reassembles a fragmented message of exactly the
// cap and refuses one byte more before reading its payload.
func TestSocketContinuationCap(t *testing.T) {
	half := maxSocketMessage / 2
	at := append(rawFrame(false, opBinary, make([]byte, half)), rawFrame(true, opContinuation, make([]byte, maxSocketMessage-half))...)
	msg, err := readingSocket(at, true, io.Discard).read()
	if err != nil || len(msg) != maxSocketMessage {
		t.Fatalf("message at the cap: %d bytes, err %v", len(msg), err)
	}
	over := append(rawFrame(false, opBinary, make([]byte, half)), rawFrame(true, opContinuation, make([]byte, maxSocketMessage-half+1))...)
	if _, err := readingSocket(over, true, io.Discard).read(); !errors.Is(err, errSocketTooBig) {
		t.Fatalf("message over the cap: err %v, want errSocketTooBig", err)
	}
	huge := []byte{0x80 | opText, 127, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	if _, err := readingSocket(huge, true, io.Discard).read(); !errors.Is(err, errSocketTooBig) {
		t.Fatalf("declared 2^63-1 bytes: err %v, want errSocketTooBig", err)
	}
}

// refFrame is one frame as the reference parser sees it.
type refFrame struct {
	fin, masked bool
	rsv, op     byte
	payload     []byte
}

// refNext decodes the frame at the front of b by plain index arithmetic,
// unmasking when the mask bit is set. ok is false when b ends before the
// frame does or the 64-bit length has its top bit set.
func refNext(b []byte) (f refFrame, rest []byte, ok bool) {
	if len(b) < 2 {
		return f, nil, false
	}
	f.fin, f.rsv, f.op = b[0] >= 128, (b[0]>>4)&7, b[0]&15
	f.masked = b[1] >= 128
	size, i := uint64(b[1]&127), 2
	if size >= 126 {
		width := 2
		if size == 127 {
			width = 8
		}
		if len(b) < 2+width {
			return f, nil, false
		}
		size = 0
		for _, c := range b[2 : 2+width] {
			size = size*256 + uint64(c)
		}
		if width == 8 && size >= 1<<63 {
			return f, nil, false
		}
		i += width
	}
	var key []byte
	if f.masked {
		if len(b) < i+4 {
			return f, nil, false
		}
		key, i = b[i:i+4], i+4
	}
	if uint64(len(b)-i) < size {
		return f, nil, false
	}
	f.payload = append([]byte{}, b[i:i+int(size)]...)
	for j := range f.payload {
		if key != nil {
			f.payload[j] ^= key[j%4]
		}
	}
	return f, b[i+int(size):], true
}

// refFrames decodes a whole, well-formed stream frame by frame.
func refFrames(t *testing.T, b []byte) []refFrame {
	t.Helper()
	var out []refFrame
	for len(b) > 0 {
		f, rest, ok := refNext(b)
		if !ok {
			t.Fatalf("torn stream after %d frames", len(out))
		}
		out, b = append(out, f), rest
	}
	return out
}

// refMessages is FuzzReadFrame's oracle, sharing no code with socket.read:
// it decodes server bytes into data messages and says how the stream
// ended — "eof" between messages, "closed" at a close frame, "error" at
// anything a client must refuse, a torn frame, or a message over limit.
func refMessages(b []byte, limit int) (msgs [][]byte, end string) {
	var cur []byte
	open := false
	for {
		if len(b) == 0 {
			if open {
				return msgs, "error"
			}
			return msgs, "eof"
		}
		f, rest, ok := refNext(b)
		if !ok || f.masked || f.rsv != 0 {
			return msgs, "error"
		}
		b = rest
		switch f.op {
		case 8, 9, 10:
			if !f.fin || len(f.payload) > 125 {
				return msgs, "error"
			}
			if f.op == 8 {
				return msgs, "closed"
			}
			continue
		case 0:
			if !open {
				return msgs, "error"
			}
		case 1, 2:
			if open {
				return msgs, "error"
			}
		default:
			return msgs, "error"
		}
		if len(cur)+len(f.payload) > limit {
			return msgs, "error"
		}
		cur = append(cur, f.payload...)
		open = !f.fin
		if f.fin {
			msgs, cur = append(msgs, cur), nil
		}
	}
}

// FuzzReadFrame feeds arbitrary server bytes to the client's frame reader
// (with a small cap, so reassembly past it is reachable): it must never
// panic, never return a message over the cap, and agree with refMessages on
// every message and on how the stream ends.
func FuzzReadFrame(f *testing.F) {
	const limit = 300
	f.Add(rawFrame(true, opText, []byte(`{"jsonrpc":"2.0"}`)))
	f.Add(append(rawFrame(false, opText, []byte("ab")), rawFrame(true, opContinuation, []byte("cd"))...))
	f.Add(append(rawFrame(true, opPing, []byte("p")), rawFrame(true, opClose, []byte{3, 232})...))
	f.Add(rawFrame(true, opBinary, make([]byte, 200)))
	f.Add(append(rawFrame(false, opBinary, make([]byte, 200)), rawFrame(true, opContinuation, make([]byte, 200))...))
	f.Add([]byte{0x81, 0xfe, 0x00, 0x80, 1, 2, 3, 4})
	f.Add([]byte{0x82, 127, 0, 0, 0, 0, 0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o'})
	f.Fuzz(func(t *testing.T, wire []byte) {
		s := readingSocket(wire, true, io.Discard)
		s.limit = limit
		var got [][]byte
		end := "eof"
		for {
			msg, err := s.read()
			if err != nil {
				switch {
				case errors.Is(err, errSocketClosed):
					end = "closed"
				case err != io.EOF:
					end = "error"
				}
				break
			}
			if len(msg) > limit {
				t.Fatalf("message of %d bytes passed the %d-byte cap", len(msg), limit)
			}
			got = append(got, msg)
		}
		want, wantEnd := refMessages(wire, limit)
		if end != wantEnd || len(got) != len(want) {
			t.Fatalf("reader: %d messages then %s; reference: %d then %s", len(got), end, len(want), wantEnd)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("message %d: reader %q, reference %q", i, got[i], want[i])
			}
		}
	})
}

// liveTxChain is a sealed chain switched live at its first tx's block, so
// every tx is still to be released.
func liveTxChain(t *testing.T) (*chain.Chain, []*chain.Tx) {
	t.Helper()
	c := testTxChain(t, 200)
	txs := c.TxsInRange(0, ^uint64(0))
	if err := c.GoLive(txs[0].Block - 1); err != nil {
		t.Fatal(err)
	}
	return c, txs
}

// rawSubscribe dials the node and subscribes, returning the socket after the
// reply.
func rawSubscribe(t *testing.T, url, kind string) *socket {
	t.Helper()
	s, err := dialSocket(context.Background(), url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.conn.Close() })
	req, _ := json.Marshal(wireRequest{JSONRPC: "2.0", ID: 7, Method: "eth_subscribe", Params: []any{kind}})
	if err := s.write(opText, req); err != nil {
		t.Fatal(err)
	}
	reply, err := s.read()
	if err != nil {
		t.Fatal(err)
	}
	var resp wireResponse[string]
	if err := json.Unmarshal(reply, &resp); err != nil || resp.Error != nil || resp.ID != 7 || resp.Result == "" {
		t.Fatalf("eth_subscribe reply %s (%v)", reply, err)
	}
	return s
}

// notificationResult decodes one eth_subscription message's result.
func notificationResult(t *testing.T, s *socket, into any) {
	t.Helper()
	msg, err := s.read()
	if err != nil {
		t.Fatal(err)
	}
	var note struct {
		Method string `json:"method"`
		Params struct {
			Result json.RawMessage `json:"result"`
		} `json:"params"`
	}
	if err := json.Unmarshal(msg, &note); err != nil || note.Method != "eth_subscription" {
		t.Fatalf("notification %s (%v)", msg, err)
	}
	if err := json.Unmarshal(note.Params.Result, into); err != nil {
		t.Fatal(err)
	}
}

// TestServerNotifications: newHeads announces the latest head per advance
// and newPendingTransactions the hash of every newly visible tx, in log
// order, while the session answers pings on the same socket.
func TestServerNotifications(t *testing.T) {
	c, txs := liveTxChain(t)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()
	heads := rawSubscribe(t, srv.URL, NewHeads)
	pending := rawSubscribe(t, srv.URL, NewPendingTransactions)

	for _, s := range []*socket{heads, pending} {
		if err := s.write(opPing, []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	head := c.AdvanceHead(txs[4].Block - c.HeadBlock())
	var hdr struct {
		Number string `json:"number"`
	}
	notificationResult(t, heads, &hdr)
	if hdr.Number != hexUint(head) {
		t.Fatalf("newHeads number %s, want %s", hdr.Number, hexUint(head))
	}
	for i := 0; txs[i].Block <= head; i++ {
		var hash string
		notificationResult(t, pending, &hash)
		if hash != txs[i].HashHex() {
			t.Fatalf("pending tx %d: %s, want %s", i, hash, txs[i].HashHex())
		}
	}
}

// TestServerSocketHandshake: a bad handshake is refused 400, a plain GET
// stays 405, and only eth_subscribe is served on the socket.
func TestServerSocketHandshake(t *testing.T) {
	c, _ := liveTxChain(t)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()
	req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Sec-WebSocket-Version", "13")
	req.Header.Set("Sec-WebSocket-Key", "short")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key answered %d, want 400", resp.StatusCode)
	}

	s, err := dialSocket(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer s.conn.Close()
	for _, body := range []string{`{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`,
		`{"jsonrpc":"2.0","id":2,"method":"eth_subscribe","params":["logs"]}`, `not json`} {
		if err := s.write(opText, []byte(body)); err != nil {
			t.Fatal(err)
		}
		reply, err := s.read()
		if err != nil {
			t.Fatal(err)
		}
		var resp wireResponse[string]
		if json.Unmarshal(reply, &resp) != nil || resp.Error == nil {
			t.Fatalf("%s answered %s, want a JSON-RPC error", body, reply)
		}
	}
}

// upgradeCounter counts WebSocket upgrade attempts in front of a handler;
// refuse, when set, answers the first n attempts with that status.
type upgradeCounter struct {
	inner  http.Handler
	refuse int
	n      int64
	count  atomic.Int64
}

func (u *upgradeCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != "" {
		if u.count.Add(1) <= u.n {
			http.Error(w, "refused", u.refuse)
			return
		}
	}
	u.inner.ServeHTTP(w, r)
}

// awaitWake advances the head one block at a time until the wake channel
// fires, failing after 5 s.
func awaitWake(t *testing.T, c *chain.Chain, wake <-chan struct{}) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		c.AdvanceHead(1)
		select {
		case <-wake:
			return
		case <-deadline:
			t.Fatal("no wake within 5s")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestSubscribeRedialRules: a 429 on the upgrade is redialed after the
// breaker cooldown; a 405 and a JSON-RPC error to eth_subscribe are final.
func TestSubscribeRedialRules(t *testing.T) {
	c, _ := liveTxChain(t)
	const cooldown = 20 * time.Millisecond
	subscribe := func(h *upgradeCounter, kind string) (<-chan struct{}, context.CancelFunc) {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		m, err := NewMultiClient([]string{srv.URL}, WithPlaneBreaker(0, cooldown))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		return m.Subscribe(ctx, kind), cancel
	}

	throttled := &upgradeCounter{inner: NewServer(c, 1), refuse: http.StatusTooManyRequests, n: 1}
	wake, _ := subscribe(throttled, NewHeads)
	awaitWake(t, c, wake)
	if n := throttled.count.Load(); n != 2 {
		t.Fatalf("%d upgrade attempts after a 429, want 2", n)
	}

	for name, h := range map[string]*upgradeCounter{
		"405":            {inner: NewServer(c, 1), refuse: http.StatusMethodNotAllowed, n: 1},
		"unknown kind":   {inner: NewServer(c, 1)},
		"http-only node": {inner: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { http.Error(w, "POST only", 405) })},
	} {
		kind := NewHeads
		if name == "unknown kind" {
			kind = "logs"
		}
		wake, cancel := subscribe(h, kind)
		time.Sleep(10 * cooldown)
		c.AdvanceHead(1)
		select {
		case <-wake:
			t.Fatalf("%s: woke without a subscription", name)
		case <-time.After(50 * time.Millisecond):
		}
		cancel()
		if n := h.count.Load(); n != 1 {
			t.Errorf("%s: %d upgrade attempts, want exactly 1", name, n)
		}
	}
}

package chaos

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// WrapHandler wraps an endpoint's (or replica's) HTTP handler with the
// injector's fault middleware for scope/target. Outside every window the
// handler is transparent; inside, faults compose with blackout > hang >
// flap > latency > filter-loss > malformed > body rewrites (truncate,
// partial batch). Connection aborts use http.ErrAbortHandler, so clients
// observe a mid-exchange transport fault — EOF or connection reset — not a
// clean HTTP error. A WebSocket upgrade is refused 503 inside a sub-drop
// window; otherwise the connection the handler hijacks for it carries the
// sub-drop and sub-stall faults for the socket's whole life.
func (in *Injector) WrapHandler(scope Scope, target int, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Upgrade") != "" {
			if open, _ := in.active(scope, target); hasKind(open, KindSubDrop) {
				in.count(KindSubDrop)
				http.Error(w, "subscriptions shed", http.StatusServiceUnavailable)
				return
			}
			w = socketWriter{w, &socketFaults{in: in, scope: scope, target: target}}
		}
		open, remain := in.active(scope, target)
		if len(open) == 0 {
			inner.ServeHTTP(w, r)
			return
		}
		var (
			blackout, malformed, truncate bool
			hangFor, delay                time.Duration
			flapP, dropP, lossP           float64
		)
		for _, wnd := range open {
			switch wnd.Kind {
			case KindBlackout:
				blackout = true
			case KindHang:
				hangFor = remain
			case KindFlap:
				if wnd.P > flapP {
					flapP = wnd.P
				}
			case KindLatency:
				if wnd.Extra > delay {
					delay = wnd.Extra
				}
			case KindMalformed:
				malformed = true
			case KindTruncate:
				truncate = true
			case KindPartialBatch:
				if wnd.P > dropP {
					dropP = wnd.P
				}
			case KindFilterLoss:
				p := wnd.P
				if p <= 0 {
					p = 1
				}
				if p > lossP {
					lossP = p
				}
			}
		}

		if blackout {
			in.count(KindBlackout)
			panic(http.ErrAbortHandler)
		}
		if hangFor > 0 {
			in.count(KindHang)
			select {
			case <-r.Context().Done():
			case <-time.After(hangFor + 10*time.Millisecond):
			}
			panic(http.ErrAbortHandler)
		}
		if flapP > 0 && in.roll(flapP) {
			in.count(KindFlap)
			panic(http.ErrAbortHandler)
		}
		if delay > 0 {
			in.count(KindLatency)
			select {
			case <-r.Context().Done():
				panic(http.ErrAbortHandler)
			case <-time.After(delay):
			}
		}
		if lossP > 0 {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				panic(http.ErrAbortHandler)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			if ids, ok := filterPollIDs(body); ok && in.roll(lossP) {
				in.count(KindFilterLoss)
				writeFilterLost(w, ids, bytes.HasPrefix(bytes.TrimSpace(body), []byte("[")))
				return
			}
		}
		if malformed {
			in.count(KindMalformed)
			w.Header().Set("Content-Type", "application/json")
			// Valid status, invalid JSON: decodes must die, AIMD must not
			// mistake it for congestion.
			io.WriteString(w, `{"jsonrpc":"2.0","id":1,"result":`)
			return
		}
		if truncate || dropP > 0 {
			rec := &captureWriter{hdr: make(http.Header), code: http.StatusOK}
			inner.ServeHTTP(rec, r)
			body := rec.buf.Bytes()
			if dropP > 0 {
				if trimmed, dropped := in.dropBatchEntries(body, dropP); dropped > 0 {
					body = trimmed
				}
			}
			if truncate && len(body) > 0 {
				in.count(KindTruncate)
				body = body[:len(body)/2]
			}
			for k, vs := range rec.hdr {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			// Drop Content-Length so a shortened body ends in a clean (but
			// semantically torn) chunked stream, not a server-side mismatch.
			w.Header().Del("Content-Length")
			w.WriteHeader(rec.code)
			w.Write(body)
			return
		}
		inner.ServeHTTP(w, r)
	})
}

func hasKind(open []Window, k Kind) bool {
	for _, w := range open {
		if w.Kind == k {
			return true
		}
	}
	return false
}

// socketFaults is where a push socket's connection sits on the timeline.
type socketFaults struct {
	in     *Injector
	scope  Scope
	target int
}

// socketWriter hands the handler a fault-injecting connection when it
// hijacks the request for a WebSocket.
type socketWriter struct {
	http.ResponseWriter
	f *socketFaults
}

func (s socketWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := s.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("chaos: %T cannot hijack", s.ResponseWriter)
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return nil, nil, err
	}
	fc := &socketConn{Conn: conn, f: s.f}
	brw.Writer.Reset(fc)
	return fc, brw, nil
}

// socketConn applies the socket faults on write: inside a sub-drop window
// the write closes the connection instead; inside a sub-stall window it
// waits for the window to close first.
type socketConn struct {
	net.Conn
	f *socketFaults
}

func (c *socketConn) Write(b []byte) (int, error) {
	open, _ := c.f.in.active(c.f.scope, c.f.target)
	for _, w := range open {
		switch w.Kind {
		case KindSubDrop:
			c.f.in.count(KindSubDrop)
			c.Conn.Close()
			return 0, net.ErrClosed
		case KindSubStall:
			c.f.in.count(KindSubStall)
			time.Sleep(w.To - c.f.in.Elapsed())
		}
	}
	return c.Conn.Write(b)
}

// captureWriter buffers an inner handler's response so the middleware can
// rewrite the body before releasing it.
type captureWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (c *captureWriter) Header() http.Header { return c.hdr }

func (c *captureWriter) WriteHeader(code int) { c.code = code }

func (c *captureWriter) Write(b []byte) (int, error) { return c.buf.Write(b) }

// rpcEnvelope is the slice of a JSON-RPC request/response the middleware
// needs: the id (echoed back) and the method (fault targeting).
type rpcEnvelope struct {
	ID     json.RawMessage `json:"id"`
	Method string          `json:"method"`
}

// filterPollIDs reports whether body is a JSON-RPC request (single or batch)
// made up entirely of filter polls, returning the request ids. Mixed batches
// pass through untouched — the storm only eats filter traffic.
func filterPollIDs(body []byte) ([]json.RawMessage, bool) {
	trimmed := bytes.TrimSpace(body)
	var reqs []rpcEnvelope
	if bytes.HasPrefix(trimmed, []byte("[")) {
		if json.Unmarshal(trimmed, &reqs) != nil {
			return nil, false
		}
	} else {
		var one rpcEnvelope
		if json.Unmarshal(trimmed, &one) != nil {
			return nil, false
		}
		reqs = []rpcEnvelope{one}
	}
	if len(reqs) == 0 {
		return nil, false
	}
	ids := make([]json.RawMessage, len(reqs))
	for i, rq := range reqs {
		switch rq.Method {
		case "eth_getFilterChanges", "eth_getFilterLogs":
		default:
			return nil, false
		}
		if len(rq.ID) == 0 {
			ids[i] = json.RawMessage("null")
		} else {
			ids[i] = rq.ID
		}
	}
	return ids, true
}

// writeFilterLost answers filter polls the way a restarted node does: a
// well-formed JSON-RPC error, code -32000 "filter not found", per request.
func writeFilterLost(w http.ResponseWriter, ids []json.RawMessage, batch bool) {
	w.Header().Set("Content-Type", "application/json")
	entry := func(id json.RawMessage) string {
		return fmt.Sprintf(`{"jsonrpc":"2.0","id":%s,"error":{"code":-32000,"message":"filter not found"}}`, id)
	}
	if !batch {
		io.WriteString(w, entry(ids[0]))
		return
	}
	var b bytes.Buffer
	b.WriteByte('[')
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(entry(id))
	}
	b.WriteByte(']')
	w.Write(b.Bytes())
}

// dropBatchEntries removes each element of a JSON array response with
// probability p — the partial batch failure: some sub-requests answered,
// the rest silently missing. Non-array bodies pass through.
func (in *Injector) dropBatchEntries(body []byte, p float64) ([]byte, int) {
	trimmed := bytes.TrimSpace(body)
	if !bytes.HasPrefix(trimmed, []byte("[")) {
		return body, 0
	}
	var entries []json.RawMessage
	if json.Unmarshal(trimmed, &entries) != nil {
		return body, 0
	}
	kept := entries[:0]
	dropped := 0
	for _, e := range entries {
		if in.roll(p) {
			dropped++
			continue
		}
		kept = append(kept, e)
	}
	if dropped == 0 {
		return body, 0
	}
	in.count(KindPartialBatch)
	out, err := json.Marshal(kept)
	if err != nil {
		return body, 0
	}
	return out, dropped
}

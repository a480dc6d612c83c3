package ethrpc

import (
	"bufio"
	"context"
	"crypto/rand"
	"crypto/sha1"
	"crypto/tls"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"
)

// The eth_subscribe transport: a minimal RFC 6455 WebSocket, stdlib only.
// This file holds what both ends share (the accept key and the frame codec)
// and the client: the dial through net/http and the subscription loop
// behind MultiClient.Subscribe. The node's upgrade path is in server.go.
//
// A subscription is only ever a wake-up. The client decodes the reply to
// eth_subscribe and nothing after it: each later data message means
// "something landed, poll now", and the caller re-reads the head or the
// feed over JSON-RPC as it would on its timer.

// Subscription kinds served by the node and accepted by Subscribe.
const (
	NewHeads               = "newHeads"
	NewPendingTransactions = "newPendingTransactions"
)

// Frame opcodes (RFC 6455 §5.2).
const (
	opContinuation = 0x0
	opText         = 0x1
	opBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

// maxSocketMessage caps one message, continuation frames included. A frame
// whose declared length would pass it fails before any payload is read.
const maxSocketMessage = 1 << 20

// socketWriteTimeout bounds one write on a net.Conn socket, so a peer that
// stops reading cannot pin the node's notifier forever.
const socketWriteTimeout = 10 * time.Second

var (
	errSocketProtocol = errors.New("ethrpc: websocket protocol violation")
	errSocketTooBig   = errors.New("ethrpc: websocket message over the cap")
	errSocketClosed   = errors.New("ethrpc: websocket closed by peer")
	// errNoSubscription marks an endpoint that has no usable subscription:
	// it answered the upgrade 4xx (429 aside) or eth_subscribe with a
	// JSON-RPC error. Subscribe never redials it.
	errNoSubscription = errors.New("ethrpc: endpoint serves no subscription")
)

// acceptKey derives Sec-WebSocket-Accept from Sec-WebSocket-Key (§4.2.2).
func acceptKey(key string) string {
	sum := sha1.Sum([]byte(key + "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"))
	return base64.StdEncoding.EncodeToString(sum[:])
}

// socket is one WebSocket connection, from either end. One goroutine reads;
// writes are serialized by wmu, because the reader answers control frames
// while another goroutine may be writing notifications.
type socket struct {
	conn   io.ReadWriteCloser
	r      *bufio.Reader
	client bool // this end masks what it writes and refuses masked frames
	limit  int  // message cap

	wmu sync.Mutex
	w   *bufio.Writer
}

func newSocket(conn io.ReadWriteCloser, r *bufio.Reader, client bool) *socket {
	return &socket{conn: conn, r: r, client: client, limit: maxSocketMessage, w: bufio.NewWriter(conn)}
}

// write sends one unfragmented frame per payload, all with opcode op, then
// flushes once. A client masks each frame with a fresh crypto/rand key.
func (s *socket) write(op byte, payloads ...[]byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if nc, ok := s.conn.(net.Conn); ok {
		nc.SetWriteDeadline(time.Now().Add(socketWriteTimeout))
	}
	for _, p := range payloads {
		var hdr [14]byte
		hdr[0] = 0x80 | op
		n := 2
		switch {
		case len(p) < 126:
			hdr[1] = byte(len(p))
		case len(p) <= 0xffff:
			hdr[1] = 126
			binary.BigEndian.PutUint16(hdr[2:], uint16(len(p)))
			n = 4
		default:
			hdr[1] = 127
			binary.BigEndian.PutUint64(hdr[2:], uint64(len(p)))
			n = 10
		}
		if !s.client {
			s.w.Write(hdr[:n]) // bufio errors stick; Flush reports them
			s.w.Write(p)
			continue
		}
		hdr[1] |= 0x80
		key := hdr[n : n+4]
		if _, err := rand.Read(key); err != nil {
			return err
		}
		s.w.Write(hdr[:n+4])
		for i, b := range p {
			s.w.WriteByte(b ^ key[i&3])
		}
	}
	return s.w.Flush()
}

// read returns the next data message. It reassembles continuation frames
// under the cap, answers ping with pong and close with close, and skips
// pongs. It fails on any frame this end must refuse: a mask bit the wrong
// way round, a reserved bit, an unknown opcode, a fragmented or oversized
// control frame, a continuation with no message open, or a new message
// inside an open one. io.EOF means the peer hung up between messages.
func (s *socket) read() ([]byte, error) {
	var msg []byte
	open := false // a fragmented message is being reassembled
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(s.r, hdr[:2]); err != nil {
			if open {
				return nil, midFrame(err)
			}
			return nil, err
		}
		fin, op := hdr[0]&0x80 != 0, hdr[0]&0x0f
		masked, n := hdr[1]&0x80 != 0, uint64(hdr[1]&0x7f)
		if hdr[0]&0x70 != 0 || masked == s.client {
			return nil, errSocketProtocol
		}
		switch n {
		case 126:
			if _, err := io.ReadFull(s.r, hdr[:2]); err != nil {
				return nil, midFrame(err)
			}
			n = uint64(binary.BigEndian.Uint16(hdr[:2]))
		case 127:
			if _, err := io.ReadFull(s.r, hdr[:8]); err != nil {
				return nil, midFrame(err)
			}
			if n = binary.BigEndian.Uint64(hdr[:8]); n>>63 != 0 {
				return nil, errSocketProtocol
			}
		}
		var key [4]byte
		if masked {
			if _, err := io.ReadFull(s.r, key[:]); err != nil {
				return nil, midFrame(err)
			}
		}
		control := op >= opClose
		switch {
		case control && (op > opPong || !fin || n > 125),
			!control && op > opBinary,
			op == opContinuation && !open,
			(op == opText || op == opBinary) && open:
			return nil, errSocketProtocol
		case !control && uint64(len(msg))+n > uint64(s.limit):
			return nil, errSocketTooBig
		}
		var payload []byte
		if control {
			payload = make([]byte, n)
		} else {
			start := len(msg)
			msg = slices.Grow(msg, int(n))[:start+int(n)]
			payload = msg[start:]
		}
		if _, err := io.ReadFull(s.r, payload); err != nil {
			return nil, midFrame(err)
		}
		if masked {
			for i := range payload {
				payload[i] ^= key[i&3]
			}
		}
		switch op {
		case opPing:
			if err := s.write(opPong, payload); err != nil {
				return nil, err
			}
		case opPong:
		case opClose:
			var status []byte
			if len(payload) >= 2 {
				status = payload[:2]
			}
			s.write(opClose, status) // best effort: the connection ends anyway
			return nil, errSocketClosed
		default:
			if open = !fin; !open {
				return msg, nil
			}
		}
	}
}

// midFrame reports an EOF inside a frame or message as a torn stream.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// socketTransport dials subscription sockets. It speaks HTTP/1.1 only:
// ForceAttemptHTTP2 stays off and the empty non-nil TLSNextProto keeps ALPN
// from offering h2, because an HTTP/2 stream cannot answer 101. Dial, TCP
// keepalive (which ends dead peers) and TLS are the stdlib's.
var socketTransport = &http.Transport{
	Proxy:                 http.ProxyFromEnvironment,
	DialContext:           (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
	TLSHandshakeTimeout:   10 * time.Second,
	ResponseHeaderTimeout: 10 * time.Second,
	TLSNextProto:          map[string]func(string, *tls.Conn) http.RoundTripper{},
}

// dialSocket opens a WebSocket on the endpoint's own URL (ws:// for http://,
// wss:// for https://) by sending the opening handshake through net/http: a
// 101 response's Body is the connection. A 4xx other than 429 wraps
// errNoSubscription.
func dialSocket(ctx context.Context, endpoint string) (*socket, error) {
	var nonce [16]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, err
	}
	key := base64.StdEncoding.EncodeToString(nonce[:])
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, endpoint, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errNoSubscription, err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Sec-WebSocket-Version", "13")
	req.Header.Set("Sec-WebSocket-Key", key)
	resp, err := socketTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		CloseBody(resp)
		err := fmt.Errorf("ethrpc: websocket upgrade answered %d", resp.StatusCode)
		if resp.StatusCode/100 == 4 && resp.StatusCode != http.StatusTooManyRequests {
			err = fmt.Errorf("%w: %v", errNoSubscription, err)
		}
		return nil, err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if !ok {
		resp.Body.Close()
		return nil, errors.New("ethrpc: websocket upgrade body is not writable")
	}
	if !strings.EqualFold(resp.Header.Get("Upgrade"), "websocket") || resp.Header.Get("Sec-WebSocket-Accept") != acceptKey(key) {
		rwc.Close()
		return nil, errors.New("ethrpc: websocket handshake not accepted")
	}
	return newSocket(rwc, bufio.NewReader(rwc), true), nil
}

// subscribe holds one socket to the endpoint until ctx ends and turns every
// notification into a non-blocking send on wake. A failed dial or a dropped
// socket redials after cooldown; an endpoint with no usable subscription is
// left to polling.
func (c *client) subscribe(ctx context.Context, kind string, cooldown time.Duration, wake chan<- struct{}) {
	for {
		if err := c.subscribeOnce(ctx, kind, wake); errors.Is(err, errNoSubscription) {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(cooldown):
		}
	}
}

// subscribeOnce runs one socket: dial, eth_subscribe, then one wake per data
// message until the socket ends.
func (c *client) subscribeOnce(ctx context.Context, kind string, wake chan<- struct{}) error {
	s, err := dialSocket(ctx, c.endpoint)
	if err != nil {
		return err
	}
	defer s.conn.Close()
	defer context.AfterFunc(ctx, func() { s.conn.Close() })()
	req, err := json.Marshal(wireRequest{JSONRPC: "2.0", ID: 1, Method: "eth_subscribe", Params: []any{kind}})
	if err != nil {
		return err
	}
	if err := s.write(opText, req); err != nil {
		return err
	}
	reply, err := s.read()
	if err != nil {
		return err
	}
	var resp wireResponse[string]
	if err := json.Unmarshal(reply, &resp); err != nil {
		return err
	}
	if resp.Error != nil {
		return fmt.Errorf("%w: %v", errNoSubscription, resp.Error)
	}
	for {
		if _, err := s.read(); err != nil {
			return err
		}
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	ph "github.com/phishinghook/phishinghook"
)

// span is one timed crossing of a layer boundary. Spans of one HTTP request
// share Req; a span started inside another carries it as Parent. Key and
// Keys identify the work item(s) so the closure check can link an alert back
// to the spans that produced it.
type span struct {
	Name   string   `json:"name"`
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent,omitempty"`
	Req    uint64   `json:"req,omitempty"`
	Start  int64    `json:"start_ns"`
	End    int64    `json:"end_ns"`
	Items  int      `json:"items,omitempty"`
	Key    string   `json:"key,omitempty"`
	Keys   []string `json:"keys,omitempty"`
	From   uint64   `json:"from,omitempty"`
	To     uint64   `json:"to,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory; they are written out once the run ends.
// A nil *tracer is valid and records nothing: every wrapper below returns
// the wrapped value unchanged, so untraced runs measure the bare system.
type tracer struct {
	t0  time.Time
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// at converts a wall time to the tracer's nanosecond clock.
func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.t0).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far, ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// byName groups spans by name.
func (t *tracer) byName() map[string][]span {
	out := map[string][]span{}
	for _, s := range t.snapshot() {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanRef travels in a request context so a backend call can name the
// handler span that caused it.
type spanRef struct{ id, req uint64 }

type spanKey struct{}

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// handler wraps an HTTP handler in a span named name; the span's ID is put
// in the request context for children recorded by traced backends.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.ids.Add(1)
		start := time.Now()
		r = r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{id: id, req: id}))
		h.ServeHTTP(w, r)
		s := span{Name: name, ID: id, Req: id, Start: t.at(start), End: t.at(time.Now())}
		if q := r.URL.Query(); q.Has("from") {
			s.From, s.To = parseUint(q.Get("from")), parseUint(q.Get("to"))
		}
		t.add(s)
	})
}

// rpcCall is the slice of a JSON-RPC request envelope the tracer reads.
type rpcCall struct {
	Method string            `json:"method"`
	Params []json.RawMessage `json:"params"`
}

// captureWriter tees a response body so feed polls can be linked to the
// transactions they delivered.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(b []byte) (int, error) {
	c.buf.Write(b)
	return c.ResponseWriter.Write(b)
}

// rpcHandler wraps a JSON-RPC node: each exchange becomes a span named
// "ethrpc.<method>" carrying its item count, the addresses of eth_getCode
// items, and the tx hashes an eth_getFilterChanges poll delivered.
func (t *tracer) rpcHandler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.ids.Add(1)
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var calls []rpcCall
		trimmed := bytes.TrimLeft(body, " \t\r\n")
		batch := len(trimmed) > 0 && trimmed[0] == '['
		if batch {
			_ = json.Unmarshal(trimmed, &calls)
		} else {
			var c rpcCall
			if json.Unmarshal(body, &c) == nil {
				calls = []rpcCall{c}
			}
		}
		s := span{Name: "ethrpc.unknown", ID: id, Req: id, Items: len(calls)}
		if len(calls) > 0 {
			s.Name = "ethrpc." + calls[0].Method
		}
		cw := &captureWriter{ResponseWriter: w}
		if s.Name == "ethrpc.eth_getFilterChanges" {
			w = cw
		}
		h.ServeHTTP(w, r)
		s.Start, s.End = t.at(start), t.at(time.Now())
		switch s.Name {
		case "ethrpc.eth_getCode":
			// Batches (the ingestion pipeline) carry Keys; a single call (the
			// tx watcher's callee fetch) carries Key.
			for _, c := range calls {
				var addr string
				if len(c.Params) > 0 && json.Unmarshal(c.Params[0], &addr) == nil {
					s.Keys = append(s.Keys, addr)
				}
			}
			if !batch && len(s.Keys) == 1 {
				s.Key, s.Keys = s.Keys[0], nil
			}
		case "ethrpc.eth_getFilterChanges":
			var resp struct {
				Result []struct {
					Hash string `json:"hash"`
				} `json:"result"`
			}
			if json.Unmarshal(cw.buf.Bytes(), &resp) == nil {
				for _, tx := range resp.Result {
					s.Keys = append(s.Keys, tx.Hash)
				}
				s.Items = len(resp.Result)
			}
		}
		t.add(s)
	})
}

// tracedScorer records one span per Score call, keyed by the bytecode hash.
type tracedScorer struct {
	name string
	s    ph.CodeScorer
	t    *tracer
}

func (d tracedScorer) Score(ctx context.Context, code []byte) (ph.Verdict, error) {
	start := time.Now()
	v, err := d.s.Score(ctx, code)
	end := time.Now()
	d.t.add(span{Name: d.name, ID: d.t.ids.Add(1), Start: d.t.at(start), End: d.t.at(end), Items: 1, Key: hashHex(code)})
	return v, err
}

func (t *tracer) scorer(name string, s ph.CodeScorer) ph.CodeScorer {
	if t == nil {
		return s
	}
	return tracedScorer{name: name, s: s, t: t}
}

// tracedTxScorer records one span per fused ScoreTx call, keyed by the
// hashes of calldata and callee code.
type tracedTxScorer struct {
	s ph.TxScorer
	t *tracer
}

func (d tracedTxScorer) ScoreTx(ctx context.Context, calldata, code []byte) (ph.TxVerdict, error) {
	start := time.Now()
	v, err := d.s.ScoreTx(ctx, calldata, code)
	end := time.Now()
	d.t.add(span{Name: "txstream.score_tx", ID: d.t.ids.Add(1), Start: d.t.at(start), End: d.t.at(end), Items: 1,
		Key: txScoreKey(calldata, hashHex(code))})
	return v, err
}

// txScoreKey names one fused score by its calldata and the callee code hash
// (the hash a tx alert carries).
func txScoreKey(calldata []byte, codeHash string) string { return hashHex(calldata) + "/" + codeHash }

func (t *tracer) txScorer(s ph.TxScorer) ph.TxScorer {
	if t == nil {
		return s
	}
	return tracedTxScorer{s: s, t: t}
}

// tracedBackend records a ScoreBatch span as the child of the replica
// handler span that called it.
type tracedBackend struct {
	*ph.Detector
	t *tracer
}

func (b tracedBackend) ScoreBatch(ctx context.Context, codes [][]byte) ([]ph.Verdict, error) {
	start := time.Now()
	vs, err := b.Detector.ScoreBatch(ctx, codes)
	end := time.Now()
	s := span{Name: "detector.score_batch", ID: b.t.ids.Add(1), Start: b.t.at(start), End: b.t.at(end), Items: len(codes)}
	if ref, ok := ctx.Value(spanKey{}).(spanRef); ok {
		s.Parent, s.Req = ref.id, ref.req
	}
	b.t.add(s)
	return vs, err
}

func (t *tracer) backend(d *ph.Detector) ph.ScoreBackend {
	if t == nil {
		return d
	}
	return tracedBackend{Detector: d, t: t}
}

// sink records one span per Emit, keyed by the alert's tx hash (tx
// modality) or code hash (contracts).
func (t *tracer) sink(s ph.AlertSink) ph.AlertSink {
	if t == nil {
		return s
	}
	return ph.NewFuncSink(func(a ph.Alert) error {
		start := time.Now()
		err := s.Emit(a)
		end := time.Now()
		key := a.CodeHash
		if a.TxHash != "" {
			key = a.TxHash
		}
		t.add(span{Name: "monitor.sink_emit", ID: t.ids.Add(1), Start: t.at(start), End: t.at(end), Items: 1, Key: key})
		return err
	})
}

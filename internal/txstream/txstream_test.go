package txstream

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/dataset"
	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/monitor"
	"github.com/phishinghook/phishinghook/internal/synth"
)

// stubCodeScorer is a fixed-verdict monitor.Scorer for fusion tests.
type stubCodeScorer struct {
	v     monitor.Verdict
	calls atomic.Int64
}

func (s *stubCodeScorer) Score(_ context.Context, _ []byte) (monitor.Verdict, error) {
	s.calls.Add(1)
	return s.v, nil
}

func TestFusedNoisyOR(t *testing.T) {
	payload := &stubCodeScorer{v: monitor.Verdict{Label: dataset.Phishing, Confidence: 0.9, ModelName: "pay"}}
	code := &stubCodeScorer{v: monitor.Verdict{Label: dataset.Benign, Confidence: 0.8, ModelName: "code", ModelVersion: "v3"}}
	f, err := NewFused(payload, code)
	if err != nil {
		t.Fatalf("NewFused: %v", err)
	}
	ctx := context.Background()

	v, err := f.ScoreTx(ctx, []byte{1, 2, 3, 4}, []byte{0xfe})
	if err != nil {
		t.Fatalf("ScoreTx: %v", err)
	}
	// Pp = 0.9, Pc = 1 − 0.8 = 0.2 → fused = 1 − 0.1·0.8 = 0.92.
	if math.Abs(v.PayloadProb-0.9) > 1e-12 || math.Abs(v.CodeProb-0.2) > 1e-12 {
		t.Fatalf("component probs = %v / %v, want 0.9 / 0.2", v.PayloadProb, v.CodeProb)
	}
	if !v.IsPhishing() || math.Abs(v.PhishProb()-0.92) > 1e-12 {
		t.Fatalf("fused = %+v, want phishing at 0.92", v)
	}
	if v.ModelName != "pay+code" || v.ModelVersion != "v3" {
		t.Fatalf("attribution = %q@%q, want pay+code@v3", v.ModelName, v.ModelVersion)
	}
}

func TestFusedSkipsEmptySides(t *testing.T) {
	payload := &stubCodeScorer{v: monitor.Verdict{Label: dataset.Phishing, Confidence: 0.9, ModelName: "pay"}}
	code := &stubCodeScorer{v: monitor.Verdict{Label: dataset.Phishing, Confidence: 0.7, ModelName: "code"}}
	f, err := NewFused(payload, code)
	if err != nil {
		t.Fatalf("NewFused: %v", err)
	}
	ctx := context.Background()

	// Empty calldata: the payload side contributes 0 and is never invoked
	// (the detector rejects empty input).
	v, err := f.ScoreTx(ctx, nil, []byte{0xfe})
	if err != nil {
		t.Fatalf("ScoreTx(nil calldata): %v", err)
	}
	if payload.calls.Load() != 0 {
		t.Fatal("payload scorer invoked on empty calldata")
	}
	if v.PayloadProb != 0 || math.Abs(v.PhishProb()-0.7) > 1e-12 || v.ModelName != "code" {
		t.Fatalf("code-only verdict = %+v", v)
	}

	// EOA callee: the code side contributes 0.
	v, err = f.ScoreTx(ctx, []byte{1, 2, 3, 4}, nil)
	if err != nil {
		t.Fatalf("ScoreTx(nil code): %v", err)
	}
	if v.CodeProb != 0 || math.Abs(v.PhishProb()-0.9) > 1e-12 || v.ModelName != "pay" {
		t.Fatalf("payload-only verdict = %+v", v)
	}

	// Plain value transfer to an EOA: no evidence at all → confidently benign.
	v, err = f.ScoreTx(ctx, nil, nil)
	if err != nil {
		t.Fatalf("ScoreTx(nil, nil): %v", err)
	}
	if v.IsPhishing() || v.PhishProb() != 0 {
		t.Fatalf("evidence-free verdict = %+v, want benign at 0", v)
	}
}

func TestFusedScoreTxZeroAlloc(t *testing.T) {
	payload := &stubCodeScorer{v: monitor.Verdict{Label: dataset.Phishing, Confidence: 0.9, ModelName: "pay"}}
	code := &stubCodeScorer{v: monitor.Verdict{Label: dataset.Benign, Confidence: 0.6, ModelName: "code", ModelVersion: "v1"}}
	f, err := NewFused(payload, code)
	if err != nil {
		t.Fatalf("NewFused: %v", err)
	}
	ctx := context.Background()
	calldata := []byte{1, 2, 3, 4, 5}
	bytecode := []byte{0xfe, 0x60, 0x00}
	if _, err := f.ScoreTx(ctx, calldata, bytecode); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.ScoreTx(ctx, calldata, bytecode); err != nil {
			t.Fatalf("ScoreTx: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fused ScoreTx overhead = %v allocs/op, want 0", allocs)
	}
}

// txScorer adapts a function to the Scorer interface for watcher tests.
type txScorer func(ctx context.Context, calldata, code []byte) (TxVerdict, error)

func (f txScorer) ScoreTx(ctx context.Context, calldata, code []byte) (TxVerdict, error) {
	return f(ctx, calldata, code)
}

// parityScorer flags txs whose last calldata byte is even — an arbitrary,
// log-computable predicate that exercises the alert path without an ML model.
func parityPhish(calldata []byte) bool {
	return len(calldata) > 0 && calldata[len(calldata)-1]%2 == 0
}

// parityVerdict is the parity scorer's answer: phishing or benign at
// confidence 0.9.
func parityVerdict(phishing bool) TxVerdict {
	v := TxVerdict{Verdict: monitor.Verdict{Label: dataset.Benign, Confidence: 0.9, ModelName: "parity", ModelVersion: "v1"}}
	if phishing {
		v.Label = dataset.Phishing
	}
	return v
}

func parityScorer() Scorer {
	return txScorer(func(_ context.Context, calldata, _ []byte) (TxVerdict, error) {
		return parityVerdict(parityPhish(calldata)), nil
	})
}

func testTxChain(t *testing.T, total int) *chain.Chain {
	t.Helper()
	c, err := chain.Build(chain.BuildConfig{
		Generator:      synth.NewGenerator(synth.DefaultConfig(7)),
		Timeline:       synth.ScaledTimeline(40, 26),
		BenignPerMonth: chain.UniformBenign(26),
		ProxyFraction:  0.1,
	})
	if err != nil {
		t.Fatalf("build chain: %v", err)
	}
	err = chain.BuildTxTraffic(c, chain.TxTrafficConfig{
		Generator: synth.NewTxGenerator(synth.TxConfig{Seed: 7}),
		PerMonth:  chain.UniformTxTraffic(total),
	})
	if err != nil {
		t.Fatalf("build tx traffic: %v", err)
	}
	return c
}

// collectSink gathers alerts under a lock, optionally invoking a hook per
// alert (the kill test cancels from it).
type collectSink struct {
	mu     sync.Mutex
	alerts []monitor.Alert
	hook   func(n int)
}

func (s *collectSink) Emit(a monitor.Alert) error {
	s.mu.Lock()
	s.alerts = append(s.alerts, a)
	n := len(s.alerts)
	s.mu.Unlock()
	if s.hook != nil {
		s.hook(n)
	}
	return nil
}

func (s *collectSink) snapshot() []monitor.Alert {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]monitor.Alert(nil), s.alerts...)
}

// expectedPhishHashes computes the alert ground truth straight from the log.
func expectedPhishHashes(c *chain.Chain) map[string]bool {
	want := map[string]bool{}
	for _, tx := range c.TxsInRange(0, ^uint64(0)) {
		if parityPhish(tx.Calldata) {
			want[tx.HashHex()] = true
		}
	}
	return want
}

func TestWatcherEndToEnd(t *testing.T) {
	c := testTxChain(t, 400)
	srv := httptest.NewServer(ethrpc.NewServer(c, 1))
	defer srv.Close()

	sink := &collectSink{}
	w, err := New(parityScorer(), Config{
		RPCURL:       srv.URL,
		StopAtBlock:  c.HeadBlock(),
		PollInterval: 1, // drain as fast as the harness allows
		Sinks:        []monitor.Sink{sink},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}

	want := expectedPhishHashes(c)
	if len(want) == 0 {
		t.Fatal("test chain produced no expected alerts")
	}
	got := map[string]int{}
	for _, a := range sink.snapshot() {
		if a.Modality != "tx" || a.TxHash == "" {
			t.Fatalf("alert missing tx attribution: %+v", a)
		}
		if a.Model != "parity" || a.ModelVersion != "v1" {
			t.Fatalf("alert attribution = %q@%q", a.Model, a.ModelVersion)
		}
		got[a.TxHash]++
	}
	for h, n := range got {
		if n != 1 {
			t.Fatalf("tx %s alerted %d times", h, n)
		}
		if !want[h] {
			t.Fatalf("unexpected alert for %s", h)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("alerted on %d txs, want %d", len(got), len(want))
	}

	st := w.Stats()
	if st.Modality != "tx" || st.Cursor != c.HeadBlock() {
		t.Fatalf("stats = %+v, want tx modality at cursor %d", st, c.HeadBlock())
	}
	total := len(c.TxsInRange(0, ^uint64(0)))
	if st.TxsScored != uint64(total) || st.SeenUnique != total {
		t.Fatalf("scored %d / seen-unique %d, want %d", st.TxsScored, st.SeenUnique, total)
	}
	if st.Alerts != uint64(len(want)) {
		t.Fatalf("stats alerts = %d, want %d", st.Alerts, len(want))
	}
}

// TestWatcherStopAtBlockDrainsLateTxs: txs released between an empty poll
// and the head read that reaches StopAtBlock must be judged before Run
// returns. The chain starts live with nothing visible, and the RPC handler
// releases the whole chain on the first eth_blockNumber after a poll.
func TestWatcherStopAtBlockDrainsLateTxs(t *testing.T) {
	c := testTxChain(t, 400)
	stop := c.TailBlock()
	if err := c.GoLive(0); err != nil {
		t.Fatal(err)
	}
	rpc := ethrpc.NewServer(c, 1)
	var polled atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req struct {
			Method string `json:"method"`
		}
		_ = json.Unmarshal(body, &req) // batches are passed through untouched
		switch req.Method {
		case "eth_getFilterChanges":
			polled.Store(true)
		case "eth_blockNumber":
			if polled.Load() {
				c.AdvanceHead(stop)
			}
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		rpc.ServeHTTP(w, r)
	}))
	defer srv.Close()

	w, err := New(parityScorer(), Config{
		RPCURL:       srv.URL,
		StopAtBlock:  stop,
		PollInterval: 1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := len(c.TxsInRange(0, ^uint64(0)))
	if st := w.Stats(); st.TxsScored != uint64(total) || st.Cursor != stop {
		t.Fatalf("Run returned having scored %d of %d txs at cursor %d (stop %d)",
			st.TxsScored, total, st.Cursor, stop)
	}
}

// TestWatcherKillAndResumeExactlyOnce cancels a checkpointed watcher
// mid-stream (from inside the alert path, so scores are genuinely in
// flight), restarts it from the checkpoint, and verifies the union of both
// runs alerts on every expected tx exactly once. Run under -race this also
// exercises the claim/judge/release concurrency.
func TestWatcherKillAndResumeExactlyOnce(t *testing.T) {
	c := testTxChain(t, 700)
	srv := httptest.NewServer(ethrpc.NewServer(c, 1))
	defer srv.Close()
	ckpt := filepath.Join(t.TempDir(), "tx.cursor")

	want := expectedPhishHashes(c)
	if len(want) < 30 {
		t.Fatalf("only %d expected alerts; chain too small for a mid-stream kill", len(want))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killAt := len(want) / 3
	first := &collectSink{hook: func(n int) {
		if n == killAt {
			cancel()
		}
	}}
	w1, err := New(parityScorer(), Config{
		RPCURL:          srv.URL,
		StopAtBlock:     c.HeadBlock(),
		PollInterval:    1,
		CheckpointPath:  ckpt,
		CheckpointEvery: 1, // persist eagerly so the kill lands between writes
		ScoreWorkers:    4,
		Sinks:           []monitor.Sink{first},
	})
	if err != nil {
		t.Fatalf("New(first): %v", err)
	}
	if err := w1.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("first Run = %v, want context.Canceled", err)
	}
	if len(first.snapshot()) >= len(want) {
		t.Fatal("first run finished before the kill; nothing left to resume")
	}

	second := &collectSink{}
	w2, err := New(parityScorer(), Config{
		RPCURL:         srv.URL,
		StopAtBlock:    c.HeadBlock(),
		PollInterval:   1,
		CheckpointPath: ckpt,
		ScoreWorkers:   4,
		Sinks:          []monitor.Sink{second},
	})
	if err != nil {
		t.Fatalf("New(second): %v", err)
	}
	if w2.SeenUnique() == 0 {
		t.Fatal("second watcher restored an empty dedup set")
	}
	if err := w2.Run(context.Background()); err != nil {
		t.Fatalf("second Run: %v", err)
	}

	got := map[string]int{}
	for _, a := range append(first.snapshot(), second.snapshot()...) {
		got[a.TxHash]++
	}
	for h := range want {
		if got[h] != 1 {
			t.Fatalf("tx %s alerted %d times across the restart, want exactly 1", h, got[h])
		}
	}
	for h := range got {
		if !want[h] {
			t.Fatalf("unexpected alert for %s", h)
		}
	}
	if w2.Cursor() != c.HeadBlock() {
		t.Fatalf("resumed cursor = %d, want %d", w2.Cursor(), c.HeadBlock())
	}
}

func TestWatcherRefusesContractCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "contract.cursor")
	if err := os.WriteFile(path, []byte(`{"version":1,"cursor":42}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(parityScorer(), Config{RPCURL: "http://127.0.0.1:1", CheckpointPath: path})
	if err == nil {
		t.Fatal("tx watcher resumed a contract-modality checkpoint")
	}
}

func TestContractWatcherRefusesTxCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx.cursor")
	blob := `{"version":1,"cursor":9,"modality":"tx","seen":["01` + strings.Repeat("00", 31) + `"]}` + "\n"
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	stub := &stubCodeScorer{v: monitor.Verdict{}}
	_, err := monitor.New(stub, monitor.Config{
		RPCURL:         "http://127.0.0.1:1",
		ExplorerURL:    "http://127.0.0.1:1",
		CheckpointPath: path,
	})
	if err == nil {
		t.Fatal("contract watcher resumed a tx-modality checkpoint")
	}
}

// TestSingleEndpointWatcherUsesPlaneSettings pins a one-endpoint watcher to
// its config's plane settings: against an endpoint that answers torn JSON,
// a breaker streak of 3 must trip after exactly 3 exchanges (1ms apart, per
// RetryBackoff), and the hour-long cooldown must hold off a fourth.
func TestSingleEndpointWatcherUsesPlaneSettings(t *testing.T) {
	var exchanges atomic.Int64
	torn := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		exchanges.Add(1)
		io.WriteString(w, `{"jsonrpc":"2.0","id":1,"result":`)
	}))
	defer torn.Close()
	w, err := New(parityScorer(), Config{
		RPCURL:          torn.URL,
		BreakerStreak:   3,
		BreakerCooldown: time.Hour,
		RetryBackoff:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := w.Run(ctx); err == nil {
		t.Fatal("Run succeeded against a torn endpoint")
	}
	if got, trips := exchanges.Load(), w.Endpoints()[0].BreakerTrips; got != 3 || trips != 1 {
		t.Errorf("%d exchanges and %d breaker trips, want 3 and 1", got, trips)
	}
}

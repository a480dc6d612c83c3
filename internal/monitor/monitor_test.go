package monitor

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/dataset"
	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/explorer"
	"github.com/phishinghook/phishinghook/internal/synth"
)

// fakeScorer flags bytecodes against a ground-truth map and counts how often
// each unique bytecode is scored (the exactly-once oracle).
type fakeScorer struct {
	phishing map[[32]byte]bool
	delay    time.Duration

	mu     sync.Mutex
	counts map[[32]byte]int
}

func newFakeScorer(c *chain.Chain) *fakeScorer {
	f := &fakeScorer{phishing: make(map[[32]byte]bool), counts: make(map[[32]byte]int)}
	for _, ct := range c.All() {
		f.phishing[sha256.Sum256(ct.Code)] = ct.Phishing
	}
	return f
}

func (f *fakeScorer) Score(ctx context.Context, code []byte) (Verdict, error) {
	if err := ctx.Err(); err != nil {
		return Verdict{}, err
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	h := sha256.Sum256(code)
	f.mu.Lock()
	f.counts[h]++
	f.mu.Unlock()
	label := dataset.Benign
	if f.phishing[h] {
		label = dataset.Phishing
	}
	return Verdict{Label: label, Confidence: 0.95, ModelName: "fake"}, nil
}

func (f *fakeScorer) maxCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	max := 0
	for _, n := range f.counts {
		if n > max {
			max = n
		}
	}
	return max
}

// liveHarness builds a small chain, switches it live at the start of
// startMonth, and serves it over JSON-RPC + explorer HTTP.
func liveHarness(t *testing.T, seed int64, startMonth int) (*chain.Chain, *fakeScorer, Config) {
	t.Helper()
	c, err := chain.Build(chain.BuildConfig{
		Generator:      synth.NewGenerator(synth.DefaultConfig(seed)),
		Timeline:       synth.ScaledTimeline(80, 40),
		BenignPerMonth: chain.UniformBenign(40),
		ProxyFraction:  0.15,
	})
	if err != nil {
		t.Fatalf("build chain: %v", err)
	}
	scorer := newFakeScorer(c) // truth map needs full visibility: build before GoLive
	start := chain.MonthStartBlock(startMonth) - 1
	if err := c.GoLive(start); err != nil {
		t.Fatal(err)
	}
	rpcSrv := httptest.NewServer(ethrpc.NewServer(c, 1))
	explSrv := httptest.NewServer(explorer.NewService(c, explorer.ServiceConfig{}).Handler())
	t.Cleanup(rpcSrv.Close)
	t.Cleanup(explSrv.Close)
	return c, scorer, Config{
		RPCURL:       rpcSrv.URL,
		ExplorerURL:  explSrv.URL,
		PollInterval: time.Millisecond,
		StartBlock:   start,
	}
}

// windowUniques returns the distinct bytecode hashes (and how many are
// phishing) deployed in (from, to].
func windowUniques(c *chain.Chain, from, to uint64) (total, phishing int) {
	seen := make(map[[32]byte]bool)
	for _, ct := range c.ContractsInRange(from+1, to) {
		h := sha256.Sum256(ct.Code)
		if !seen[h] {
			seen[h] = true
			total++
			if ct.Phishing {
				phishing++
			}
		}
	}
	return total, phishing
}

func TestWatcherFollowsLiveChain(t *testing.T) {
	c, scorer, cfg := liveHarness(t, 21, 10)
	tail := c.TailBlock()
	cfg.StopAtBlock = tail
	var alerts []Alert
	var alertMu sync.Mutex
	cfg.Sinks = []Sink{FuncSink(func(a Alert) error {
		alertMu.Lock()
		alerts = append(alerts, a)
		alertMu.Unlock()
		return nil
	})}
	w, err := New(scorer, cfg)
	if err != nil {
		t.Fatal(err)
	}

	clk, err := chain.NewClock(c, chain.ClockConfig{Seed: 5, BlocksPerTick: 60000, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go clk.Run(ctx)

	if err := w.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}

	stats := w.Stats()
	if stats.Cursor != tail {
		t.Fatalf("cursor = %d, want tail %d", stats.Cursor, tail)
	}
	// The watcher must have followed the head incrementally, not in one
	// leap: several scan windows mean several blocks-seen accumulations.
	if got := len(c.ContractsInRange(cfg.StartBlock+1, tail)); int(stats.ContractsSeen) != got {
		t.Errorf("ContractsSeen = %d, want %d", stats.ContractsSeen, got)
	}
	wantUnique, wantPhish := windowUniques(c, cfg.StartBlock, tail)
	if int(stats.ContractsScored) != wantUnique {
		t.Errorf("ContractsScored = %d, want %d unique bytecodes", stats.ContractsScored, wantUnique)
	}
	if stats.DedupHits != stats.ContractsSeen-stats.ContractsScored {
		t.Errorf("DedupHits = %d, want seen-scored = %d", stats.DedupHits, stats.ContractsSeen-stats.ContractsScored)
	}
	if scorer.maxCount() != 1 {
		t.Errorf("a bytecode was scored %d times, want exactly once", scorer.maxCount())
	}
	if len(alerts) != wantPhish {
		t.Errorf("%d alerts, want %d (unique phishing bytecodes in window)", len(alerts), wantPhish)
	}
	if stats.Errors != 0 {
		t.Errorf("watcher recorded %d errors", stats.Errors)
	}
	if stats.ScoreP50MS <= 0 || stats.ScoreP99MS < stats.ScoreP50MS {
		t.Errorf("implausible latency quantiles p50=%.3f p99=%.3f", stats.ScoreP50MS, stats.ScoreP99MS)
	}
}

func TestWatcherCheckpointRestartRescoresNothing(t *testing.T) {
	c, scorer, cfg := liveHarness(t, 33, 9)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "cursor.json")
	mid := chain.MonthStartBlock(11)
	tail := c.TailBlock()
	ctx := context.Background()

	// Phase 1: watch up to mid, then "crash".
	c.AdvanceHead(mid - cfg.StartBlock)
	cfg.StopAtBlock = mid
	w1, err := New(scorer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Run(ctx); err != nil {
		t.Fatalf("phase 1: %v", err)
	}
	scored1 := w1.Stats().ContractsScored

	// Phase 2: a fresh watcher resumes from the checkpoint — StartBlock is
	// deliberately wrong to prove the checkpoint wins.
	c.AdvanceHead(tail - mid)
	cfg.StartBlock = 0
	cfg.StopAtBlock = tail
	w2, err := New(scorer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Cursor() != mid {
		t.Fatalf("restarted cursor = %d, want checkpointed %d", w2.Cursor(), mid)
	}
	if w2.SeenUnique() != int(scored1) {
		t.Fatalf("restarted dedup set has %d hashes, want %d", w2.SeenUnique(), scored1)
	}
	if err := w2.Run(ctx); err != nil {
		t.Fatalf("phase 2: %v", err)
	}
	if w2.Stats().Cursor != tail {
		t.Fatalf("phase-2 cursor = %d, want %d", w2.Stats().Cursor, tail)
	}
	// Exactly-once survives the restart: no bytecode from phase 1 (or its
	// clones) was scored again.
	if scorer.maxCount() != 1 {
		t.Errorf("restart re-scored a bytecode (max count %d)", scorer.maxCount())
	}
	wantTotal, _ := windowUniques(c, chain.MonthStartBlock(9)-1, tail)
	total := int(scored1 + w2.Stats().ContractsScored)
	if total > wantTotal {
		t.Errorf("scored %d bytecodes across both phases, window only has %d uniques", total, wantTotal)
	}
}

func TestWatcherDropPolicySheds(t *testing.T) {
	c, scorer, cfg := liveHarness(t, 44, 10)
	scorer.delay = 2 * time.Millisecond
	tail := c.TailBlock()
	c.AdvanceHead(tail - cfg.StartBlock)
	cfg.StopAtBlock = tail
	cfg.QueueSize = 1
	cfg.ScoreWorkers = 1
	cfg.Fetchers = 8
	cfg.DropWhenFull = true
	w, err := New(scorer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := w.Stats()
	if s.Dropped == 0 {
		t.Fatal("drop policy under a saturated queue shed nothing")
	}
	if s.QueueCap != 1 {
		t.Fatalf("QueueCap = %d, want 1", s.QueueCap)
	}
	// Every observed deployment lands in exactly one accounting bucket.
	if s.ContractsScored+s.DedupHits+s.Dropped != s.ContractsSeen {
		t.Errorf("accounting leak: scored %d + dedup %d + dropped %d != seen %d",
			s.ContractsScored, s.DedupHits, s.Dropped, s.ContractsSeen)
	}
}

func TestWatcherBackpressureBoundsQueue(t *testing.T) {
	c, scorer, cfg := liveHarness(t, 55, 11)
	scorer.delay = time.Millisecond
	tail := c.TailBlock()
	c.AdvanceHead(tail - cfg.StartBlock)
	cfg.StopAtBlock = tail
	cfg.QueueSize = 2
	cfg.ScoreWorkers = 1
	w, err := New(scorer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() { done <- w.Run(ctx) }()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			s := w.Stats()
			if s.Dropped != 0 {
				t.Errorf("blocking policy dropped %d deployments", s.Dropped)
			}
			if want, _ := windowUniques(c, cfg.StartBlock, tail); int(s.ContractsScored) != want {
				t.Errorf("scored %d, want %d", s.ContractsScored, want)
			}
			return
		default:
			if d := w.Stats().QueueDepth; d > 2 {
				t.Fatalf("queue depth %d exceeds cap 2", d)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.json")
	if _, ok, err := loadCheckpoint(path); err != nil || ok {
		t.Fatalf("missing checkpoint: ok=%v err=%v, want absent and no error", ok, err)
	}
	want := checkpoint{Cursor: 12345, Seen: []string{"00ff", "aa11"}}
	if err := saveCheckpoint(path, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := loadCheckpoint(path)
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if got.Cursor != want.Cursor || len(got.Seen) != 2 {
		t.Errorf("round trip lost state: %+v", got)
	}
}

func TestJSONLSinkAndFanout(t *testing.T) {
	var buf bytes.Buffer
	jsonl := NewJSONLSink(&buf)
	var viaFunc int
	multi := MultiSink(jsonl, FuncSink(func(Alert) error { viaFunc++; return nil }))
	for i := 0; i < 3; i++ {
		a := Alert{Address: fmt.Sprintf("0x%040d", i), CodeHash: "ab", Block: uint64(i), Confidence: 0.9, Model: "m"}
		if err := multi.Emit(a); err != nil {
			t.Fatal(err)
		}
	}
	if viaFunc != 3 {
		t.Errorf("func sink saw %d alerts, want 3", viaFunc)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("jsonl sink wrote %d lines, want 3", len(lines))
	}
	var back Alert
	if err := json.Unmarshal(lines[1], &back); err != nil {
		t.Fatalf("line 1 not valid JSON: %v", err)
	}
	if back.Block != 1 || back.Model != "m" {
		t.Errorf("alert did not round-trip: %+v", back)
	}
	// A full channel is an error, not a stall.
	ch := make(chan Alert)
	if err := ChanSink(ch).Emit(Alert{}); err == nil {
		t.Error("ChanSink on a full channel should error")
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h LatencyHist
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram should answer 0")
	}
	for i := 0; i < 99; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(500 * time.Millisecond)
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 < time.Millisecond || p50 > 3*time.Millisecond {
		t.Errorf("p50 = %v, want ~1-2ms upper bound", p50)
	}
	if p99 < 500*time.Millisecond || p99 > 2*time.Second {
		t.Errorf("p99 = %v, want to catch the 500ms outlier", p99)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(nil, Config{RPCURL: "x", ExplorerURL: "y"}); err == nil {
		t.Error("nil scorer accepted")
	}
	if _, err := New(&fakeScorer{}, Config{}); err == nil {
		t.Error("missing endpoints accepted")
	}
}

// failOnceScorer errors on its first call, then behaves like the fake.
type failOnceScorer struct {
	*fakeScorer
	failed atomic.Bool
}

func (f *failOnceScorer) Score(ctx context.Context, code []byte) (Verdict, error) {
	if f.failed.CompareAndSwap(false, true) {
		return Verdict{}, fmt.Errorf("transient model fault")
	}
	return f.fakeScorer.Score(ctx, code)
}

func TestWatcherRetriesWindowAfterScoreFailure(t *testing.T) {
	c, fake, cfg := liveHarness(t, 66, 11)
	scorer := &failOnceScorer{fakeScorer: fake}
	tail := c.TailBlock()
	c.AdvanceHead(tail - cfg.StartBlock)
	cfg.StopAtBlock = tail
	w, err := New(scorer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := w.Stats()
	if s.Errors == 0 {
		t.Fatal("the transient score fault was not recorded")
	}
	if s.Cursor != tail {
		t.Fatalf("cursor = %d, want tail %d (window must retry, not stall)", s.Cursor, tail)
	}
	// The failed deployment was un-remembered and re-scored on the rescan:
	// every unique bytecode still ends up judged exactly once.
	want, _ := windowUniques(c, cfg.StartBlock, tail)
	if int(s.ContractsScored) != want {
		t.Errorf("scored %d unique bytecodes, want %d", s.ContractsScored, want)
	}
}

// poisonScorer always fails one specific bytecode.
type poisonScorer struct {
	*fakeScorer
	poison [32]byte
}

func (p *poisonScorer) Score(ctx context.Context, code []byte) (Verdict, error) {
	if sha256.Sum256(code) == p.poison {
		return Verdict{}, fmt.Errorf("deterministic model fault")
	}
	return p.fakeScorer.Score(ctx, code)
}

func TestWatcherAbandonsPoisonPillBytecode(t *testing.T) {
	c, fake, cfg := liveHarness(t, 77, 11)
	tail := c.TailBlock()
	c.AdvanceHead(tail - cfg.StartBlock)
	window := c.ContractsInRange(cfg.StartBlock+1, tail)
	if len(window) == 0 {
		t.Fatal("empty watch window")
	}
	scorer := &poisonScorer{fakeScorer: fake, poison: sha256.Sum256(window[0].Code)}
	cfg.StopAtBlock = tail
	w, err := New(scorer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := w.Stats()
	if s.Cursor != tail {
		t.Fatalf("cursor = %d, want tail %d — a poison pill must not wedge the watcher", s.Cursor, tail)
	}
	if s.Poisoned != 1 {
		t.Errorf("Poisoned = %d, want 1", s.Poisoned)
	}
	// Everything except the poisoned bytecode still gets scored.
	want, _ := windowUniques(c, cfg.StartBlock, tail)
	if int(s.ContractsScored) != want-1 {
		t.Errorf("scored %d unique bytecodes, want %d (all but the poison pill)", s.ContractsScored, want-1)
	}
}

// fixedScorer answers the same verdict for every bytecode.
type fixedScorer Verdict

func (f fixedScorer) Score(context.Context, []byte) (Verdict, error) { return Verdict(f), nil }

// sameCodeFetcher answers one fixed bytecode for every address.
type sameCodeFetcher []byte

func (f sameCodeFetcher) GetCodeBatch(_ context.Context, addrs []chain.Address) ([][]byte, error) {
	codes := make([][]byte, len(addrs))
	for i := range codes {
		codes[i] = f
	}
	return codes, nil
}

// TestPipelineThresholdIsPhishProb pins the contract alert rule to the one
// the tx watcher uses: an alert fires on P(phishing) >= Threshold and
// carries that probability as its confidence, so a threshold below 0.5 also
// fires on a benign verdict whose P(phishing) clears it.
func TestPipelineThresholdIsPhishProb(t *testing.T) {
	benign := fixedScorer{Label: dataset.Benign, Confidence: 0.6, ModelName: "fixed"} // P(phishing) = 0.4
	for _, tc := range []struct {
		threshold float64
		want      []float64
	}{{0.3, []float64{0.4}}, {0.5, nil}} {
		alerts := make(chan Alert, 2)
		p, err := NewPipeline(benign, sameCodeFetcher("\x60\x80"), PipelineConfig{Threshold: tc.threshold, Sinks: []Sink{ChanSink(alerts)}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		p.Start(ctx)
		err = p.Scan(ctx, []string{"0x1111111111111111111111111111111111111111"}, 1)
		p.Stop()
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		close(alerts)
		var got []float64
		for a := range alerts {
			got = append(got, a.Confidence)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("threshold %v: alert confidences %v, want %v", tc.threshold, got, tc.want)
		}
	}
}

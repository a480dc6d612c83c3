package monitor

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/explorer"
	"github.com/phishinghook/phishinghook/internal/synth"
)

// pushHarness is liveHarness with the JSON-RPC node behind wrap (nil: the
// node itself). It also returns every deployment above the live head, in
// block order, captured before GoLive hides them.
func pushHarness(t *testing.T, wrap func(http.Handler) http.Handler) (*chain.Chain, []*chain.Contract, *fakeScorer, Config) {
	t.Helper()
	c, err := chain.Build(chain.BuildConfig{
		Generator:      synth.NewGenerator(synth.DefaultConfig(21)),
		Timeline:       synth.ScaledTimeline(80, 40),
		BenignPerMonth: chain.UniformBenign(40),
		ProxyFraction:  0.15,
	})
	if err != nil {
		t.Fatalf("build chain: %v", err)
	}
	scorer := newFakeScorer(c)
	start := chain.MonthStartBlock(10) - 1
	var future []*chain.Contract
	for _, ct := range c.All() {
		if ct.Block > start {
			future = append(future, ct)
		}
	}
	if err := c.GoLive(start); err != nil {
		t.Fatal(err)
	}
	var rpc http.Handler = ethrpc.NewServer(c, 1)
	if wrap != nil {
		rpc = wrap(rpc)
	}
	rpcSrv := httptest.NewServer(rpc)
	explSrv := httptest.NewServer(explorer.NewService(c, explorer.ServiceConfig{}).Handler())
	t.Cleanup(rpcSrv.Close)
	t.Cleanup(explSrv.Close)
	return c, future, scorer, Config{RPCURL: rpcSrv.URL, ExplorerURL: explSrv.URL, StartBlock: start}
}

// alertChan is a sink delivering alerts on a channel.
func alertChan(cfg *Config) <-chan Alert {
	ch := make(chan Alert, 4096)
	cfg.Sinks = []Sink{FuncSink(func(a Alert) error { ch <- a; return nil })}
	return ch
}

// socketRecorder counts WebSocket upgrades in front of the node and keeps
// the server side of every socket, so a test can drop them.
type socketRecorder struct {
	refuse   bool // answer upgrades 405, like an HTTP-only provider
	upgrades atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	times []time.Time
}

func (s *socketRecorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			s.upgrades.Add(1)
			s.mu.Lock()
			s.times = append(s.times, time.Now())
			s.mu.Unlock()
			if s.refuse {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			w = hijackRecorder{w, s}
		}
		h.ServeHTTP(w, r)
	})
}

// drop closes every socket served so far and returns when it did.
func (s *socketRecorder) drop() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
	return time.Now()
}

type hijackRecorder struct {
	http.ResponseWriter
	s *socketRecorder
}

func (h hijackRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	c, brw, err := h.ResponseWriter.(http.Hijacker).Hijack()
	if err == nil {
		h.s.mu.Lock()
		h.s.conns = append(h.s.conns, c)
		h.s.mu.Unlock()
	}
	return c, brw, err
}

// TestWatcherWakesOnNewHeads: with a poll interval of a minute, only a
// newHeads notification can start the poll that finds a block released
// after Run started. Its alert must land within a second.
func TestWatcherWakesOnNewHeads(t *testing.T) {
	c, future, scorer, cfg := pushHarness(t, nil)
	cfg.PollInterval = time.Minute
	alerts := alertChan(&cfg)
	w, err := New(scorer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	// Release empty blocks one at a time until a wake shows the socket is
	// subscribed.
	for w.Stats().Wakes == 0 {
		if ctx.Err() != nil {
			t.Fatal("no wake before the deadline")
		}
		c.AdvanceHead(1)
		time.Sleep(5 * time.Millisecond)
	}
	var target *chain.Contract
	for _, ct := range future {
		if ct.Block > c.HeadBlock() && ct.Phishing {
			target = ct
			break
		}
	}
	if target == nil {
		t.Fatal("no phishing deployment left to release")
	}
	sum := sha256.Sum256(target.Code)
	want := hex.EncodeToString(sum[:])
	released := time.Now()
	c.AdvanceHead(target.Block - c.HeadBlock())
	timeout := time.After(time.Second)
	for found := false; !found; {
		select {
		case a := <-alerts:
			found = a.CodeHash == want
		case <-timeout:
			t.Fatalf("no alert for block %d within 1s of its release (wakes %d)", target.Block, w.Stats().Wakes)
		}
	}
	t.Logf("alert %.2fms after release, %d wakes, %d polls", float64(time.Since(released).Microseconds())/1000, w.Stats().Wakes, w.Stats().Polls)
	cancel()
	<-done
}

// TestWatcherPollsWithoutSubscription: an endpoint that answers the upgrade
// 405 gets exactly one attempt, and the watcher raises every alert on its
// poll timer alone.
func TestWatcherPollsWithoutSubscription(t *testing.T) {
	rec := &socketRecorder{refuse: true}
	c, _, scorer, cfg := pushHarness(t, rec.wrap)
	cfg.PollInterval = time.Millisecond
	cfg.StopAtBlock = c.TailBlock()
	alerts := alertChan(&cfg)
	w, err := New(scorer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	for rec.upgrades.Load() == 0 && ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	clk, err := chain.NewClock(c, chain.ClockConfig{Seed: 5, BlocksPerTick: 60000, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go clk.Run(ctx)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	_, wantPhish := windowUniques(c, cfg.StartBlock, cfg.StopAtBlock)
	if got := len(alerts); got != wantPhish {
		t.Errorf("%d alerts, want %d", got, wantPhish)
	}
	if st := w.Stats(); st.Wakes != 0 || st.Cursor != cfg.StopAtBlock {
		t.Errorf("wakes %d, cursor %d; want 0 wakes at %d", st.Wakes, st.Cursor, cfg.StopAtBlock)
	}
	if n := rec.upgrades.Load(); n != 1 {
		t.Errorf("%d upgrade attempts, want exactly 1", n)
	}
}

// TestWatcherRedialsDroppedSocket closes the node's side of the socket
// mid-run. Polling once a minute, the watcher can only reach its stop block
// through a redialed subscription, which must come no sooner than the
// breaker cooldown and lose no alert.
func TestWatcherRedialsDroppedSocket(t *testing.T) {
	rec := &socketRecorder{}
	c, _, scorer, cfg := pushHarness(t, rec.wrap)
	const cooldown = 50 * time.Millisecond
	cfg.PollInterval = time.Minute
	cfg.BreakerCooldown = cooldown
	span := c.TailBlock() - cfg.StartBlock
	cfg.StopAtBlock = cfg.StartBlock + span*2/3
	alerts := alertChan(&cfg)
	w, err := New(scorer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	clk, err := chain.NewClock(c, chain.ClockConfig{Seed: 5, BlocksPerTick: int(span / 400), Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go clk.Run(ctx)

	for w.Cursor() < cfg.StartBlock+span/3 {
		if ctx.Err() != nil {
			t.Fatal("watcher never reached a third of the span")
		}
		time.Sleep(time.Millisecond)
	}
	dropped := rec.drop()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	rec.mu.Lock()
	times := append([]time.Time(nil), rec.times...)
	rec.mu.Unlock()
	if len(times) != 2 {
		t.Fatalf("%d upgrade attempts, want the first and one redial", len(times))
	}
	if gap := times[1].Sub(dropped); gap < cooldown {
		t.Errorf("redialed %v after the drop, before the %v cooldown", gap, cooldown)
	}
	st := w.Stats()
	_, wantPhish := windowUniques(c, cfg.StartBlock, st.Cursor)
	if got := len(alerts); got != wantPhish {
		t.Errorf("%d alerts through block %d, want %d", got, st.Cursor, wantPhish)
	}
	if scorer.maxCount() != 1 {
		t.Errorf("a bytecode was scored %d times, want exactly once", scorer.maxCount())
	}
	if st.Wakes == 0 {
		t.Error("no wakes recorded")
	}
}

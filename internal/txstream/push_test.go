package txstream

import (
	"bufio"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/monitor"
)

// upgradeTap sits in front of the node: it counts WebSocket upgrades,
// answers them 405 when refuse is set, and otherwise keeps the server side
// of each socket so a test can drop it.
type upgradeTap struct {
	refuse   bool
	upgrades atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	times []time.Time
}

func (u *upgradeTap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			u.upgrades.Add(1)
			u.mu.Lock()
			u.times = append(u.times, time.Now())
			u.mu.Unlock()
			if u.refuse {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			w = tapHijack{w, u}
		}
		h.ServeHTTP(w, r)
	})
}

type tapHijack struct {
	http.ResponseWriter
	u *upgradeTap
}

func (h tapHijack) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	c, brw, err := h.ResponseWriter.(http.Hijacker).Hijack()
	if err == nil {
		h.u.mu.Lock()
		h.u.conns = append(h.u.conns, c)
		h.u.mu.Unlock()
	}
	return c, brw, err
}

// livePush is a tx chain switched live before its first tx and served
// through tap (nil: the node itself).
func livePush(t *testing.T, tap *upgradeTap) (*chain.Chain, []*chain.Tx, string) {
	t.Helper()
	c := testTxChain(t, 400)
	txs := c.TxsInRange(0, ^uint64(0))
	if err := c.GoLive(txs[0].Block - 1); err != nil {
		t.Fatal(err)
	}
	var h http.Handler = ethrpc.NewServer(c, 1)
	if tap != nil {
		h = tap.wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return c, txs, srv.URL
}

// runWatcher starts w.Run and returns its result channel.
func runWatcher(ctx context.Context, w *Watcher) <-chan error {
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	return done
}

// TestWatcherWakesOnPendingTx: polling once a minute, only a
// newPendingTransactions notification can start the poll that delivers a tx
// released after Run started. Its alert must land within a second.
func TestWatcherWakesOnPendingTx(t *testing.T) {
	c, txs, url := livePush(t, nil)
	alerts := make(chan monitor.Alert, 1024)
	w, err := New(parityScorer(), Config{
		RPCURL:       url,
		StartBlock:   c.HeadBlock(),
		PollInterval: time.Minute,
		Sinks:        []monitor.Sink{monitor.FuncSink(func(a monitor.Alert) error { alerts <- a; return nil })},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := runWatcher(ctx, w)

	// Release txs one block at a time until a wake shows the socket is
	// subscribed.
	i := 0
	for ; w.Stats().Wakes == 0; i++ {
		if ctx.Err() != nil || i == len(txs) {
			t.Fatal("no wake before the deadline")
		}
		c.AdvanceHead(txs[i].Block - c.HeadBlock())
		time.Sleep(5 * time.Millisecond)
	}
	for ; i < len(txs) && (txs[i].Block <= c.HeadBlock() || !parityPhish(txs[i].Calldata)); i++ {
	}
	if i == len(txs) {
		t.Fatal("no phishing tx left to release")
	}
	target := txs[i]
	released := time.Now()
	c.AdvanceHead(target.Block - c.HeadBlock())
	timeout := time.After(time.Second)
	for found := false; !found; {
		select {
		case a := <-alerts:
			found = a.TxHash == target.HashHex()
		case <-timeout:
			t.Fatalf("no alert for tx %s within 1s of its release (wakes %d)", target.HashHex(), w.Stats().Wakes)
		}
	}
	t.Logf("alert %.2fms after release, %d wakes, %d polls", float64(time.Since(released).Microseconds())/1000, w.Stats().Wakes, w.Stats().Polls)
	cancel()
	<-done
}

// TestWatcherPushFallbacks: against an endpoint that answers the upgrade
// 405, the watcher makes one attempt and judges every tx on its poll timer;
// when the node drops the socket mid-run, a watcher polling once a minute
// redials after the breaker cooldown and still alerts on every tx exactly
// once.
func TestWatcherPushFallbacks(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	for _, tc := range []struct {
		name string
		tap  *upgradeTap
		poll time.Duration
	}{
		{"405", &upgradeTap{refuse: true}, time.Millisecond},
		{"dropped socket", &upgradeTap{}, time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, txs, url := livePush(t, tc.tap)
			start := c.HeadBlock()
			span := c.TailBlock() - start
			stop := start + span*2/3
			sink := &collectSink{}
			w, err := New(parityScorer(), Config{
				RPCURL:          url,
				StartBlock:      start,
				StopAtBlock:     stop,
				PollInterval:    tc.poll,
				BreakerCooldown: cooldown,
				Sinks:           []monitor.Sink{sink},
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			done := runWatcher(ctx, w)
			for tc.tap.upgrades.Load() == 0 && ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			clk, err := chain.NewClock(c, chain.ClockConfig{Seed: 3, BlocksPerTick: int(span / 400), Interval: 2 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			go clk.Run(ctx)

			var dropped time.Time
			if !tc.tap.refuse {
				for w.Cursor() < start+span/3 {
					if ctx.Err() != nil {
						t.Fatal("watcher never reached a third of the span")
					}
					time.Sleep(time.Millisecond)
				}
				tc.tap.mu.Lock()
				for _, conn := range tc.tap.conns {
					conn.Close()
				}
				dropped = time.Now()
				tc.tap.mu.Unlock()
			}
			if err := <-done; err != nil {
				t.Fatalf("Run: %v", err)
			}

			got := map[string]int{}
			for _, a := range sink.snapshot() {
				got[a.TxHash]++
			}
			for _, tx := range txs {
				if tx.Block <= stop && parityPhish(tx.Calldata) && got[tx.HashHex()] != 1 {
					t.Fatalf("tx %s in block %d alerted %d times, want 1", tx.HashHex(), tx.Block, got[tx.HashHex()])
				}
			}
			tc.tap.mu.Lock()
			times := append([]time.Time(nil), tc.tap.times...)
			tc.tap.mu.Unlock()
			st := w.Stats()
			if tc.tap.refuse {
				if len(times) != 1 || st.Wakes != 0 {
					t.Fatalf("%d upgrade attempts and %d wakes, want 1 and 0", len(times), st.Wakes)
				}
				return
			}
			if len(times) != 2 {
				t.Fatalf("%d upgrade attempts, want the first and one redial", len(times))
			}
			if gap := times[1].Sub(dropped); gap < cooldown {
				t.Errorf("redialed %v after the drop, before the %v cooldown", gap, cooldown)
			}
			if st.Wakes == 0 {
				t.Error("no wakes recorded")
			}
		})
	}
}

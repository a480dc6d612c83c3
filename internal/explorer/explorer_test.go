package explorer

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/synth"
)

func testChain(t *testing.T, seed int64) *chain.Chain {
	t.Helper()
	c, err := chain.Build(chain.BuildConfig{
		Generator:      synth.NewGenerator(synth.DefaultConfig(seed)),
		Timeline:       synth.ScaledTimeline(52, 26),
		BenignPerMonth: chain.UniformBenign(52),
		ProxyFraction:  0.1,
	})
	if err != nil {
		t.Fatalf("build chain: %v", err)
	}
	return c
}

func TestRegistryPagination(t *testing.T) {
	c := testChain(t, 2)
	svc := NewService(c, ServiceConfig{PageSize: 7})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	crawler := NewCrawler(srv.URL)

	addrs, err := crawler.ListContracts(context.Background(), 0, ^uint64(0))
	if err != nil {
		t.Fatalf("ListContracts: %v", err)
	}
	if len(addrs) != c.Len() {
		t.Fatalf("listed %d contracts, want %d", len(addrs), c.Len())
	}
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate address %s across pages", a)
		}
		seen[a] = true
	}
}

func TestRegistryBlockRange(t *testing.T) {
	c := testChain(t, 3)
	svc := NewService(c, ServiceConfig{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	crawler := NewCrawler(srv.URL)

	from, to := chain.MonthStartBlock(2), chain.MonthStartBlock(3)-1
	addrs, err := crawler.ListContracts(context.Background(), from, to)
	if err != nil {
		t.Fatalf("ListContracts: %v", err)
	}
	want := len(c.ContractsInRange(from, to))
	if len(addrs) != want {
		t.Errorf("range listing returned %d, want %d", len(addrs), want)
	}
}

func TestLabelsMatchGroundTruthWithoutNoise(t *testing.T) {
	c := testChain(t, 4)
	svc := NewService(c, ServiceConfig{LabelNoise: 0})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	crawler := NewCrawler(srv.URL, WithWorkers(4))

	ctx := context.Background()
	for _, ct := range c.All()[:40] {
		label, err := crawler.Label(ctx, ct.Addr.String())
		if err != nil {
			t.Fatalf("Label(%s): %v", ct.Addr, err)
		}
		want := ""
		if ct.Phishing {
			want = PhishLabel
		}
		if label != want {
			t.Errorf("Label(%s) = %q, want %q", ct.Addr, label, want)
		}
	}
}

func TestLabelNoiseIsDeterministicAndBounded(t *testing.T) {
	c := testChain(t, 6)
	svc := NewService(c, ServiceConfig{LabelNoise: 0.1, NoiseSeed: 99})
	flips := 0
	total := 0
	for _, ct := range c.All() {
		l1 := svc.LabelFor(ct)
		l2 := svc.LabelFor(ct)
		if l1 != l2 {
			t.Fatalf("label for %s not deterministic", ct.Addr)
		}
		truth := ""
		if ct.Phishing {
			truth = PhishLabel
		}
		if l1 != truth {
			flips++
		}
		total++
	}
	rate := float64(flips) / float64(total)
	if rate == 0 || rate > 0.25 {
		t.Errorf("flip rate %.3f outside plausible band for 10%% noise (n=%d)", rate, total)
	}
}

func TestRateLimiting(t *testing.T) {
	c := testChain(t, 7)
	svc := NewService(c, ServiceConfig{RateLimit: 5, Burst: 2})
	base := time.Now()
	// Deterministic clock: each call advances 50ms => 5/s refill gives
	// 0.25 tokens per call, so sustained calls must eventually be limited.
	calls := 0
	svc.now = func() time.Time {
		calls++
		return base.Add(time.Duration(calls) * 50 * time.Millisecond)
	}
	allowed, limited := 0, 0
	for i := 0; i < 40; i++ {
		if svc.allow() {
			allowed++
		} else {
			limited++
		}
	}
	if limited == 0 {
		t.Error("token bucket never limited")
	}
	if allowed < 10 {
		t.Errorf("only %d calls allowed; refill seems broken", allowed)
	}
}

func TestCrawlerRetriesThroughRateLimit(t *testing.T) {
	c := testChain(t, 8)
	svc := NewService(c, ServiceConfig{RateLimit: 200, Burst: 3})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	crawler := NewCrawler(srv.URL, WithWorkers(8))

	all := c.All()
	addrs := make([]string, 0, 30)
	for _, ct := range all[:30] {
		addrs = append(addrs, ct.Addr.String())
	}
	results := crawler.LabelAll(context.Background(), addrs)
	if len(results) != len(addrs) {
		t.Fatalf("got %d results, want %d", len(results), len(addrs))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("address %s failed through rate limiter: %v", r.Address, r.Err)
		}
	}
	// Results must be sorted for determinism.
	for i := 1; i < len(results); i++ {
		if results[i-1].Address > results[i].Address {
			t.Fatal("LabelAll results not sorted")
		}
	}
}

// TestCrawlerKeepsConnectionAcrossErrorStatuses pins the bounded drain in
// the crawler: four 429s (or 502s) and then a 200 must travel over one TCP
// connection. Closing an unread error body makes the transport drop the
// connection, so every retry would dial a new one.
func TestCrawlerKeepsConnectionAcrossErrorStatuses(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusBadGateway} {
		var conns, calls atomic.Int64
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) <= 4 {
				http.Error(w, strings.Repeat("busy ", 200), status)
				return
			}
			writeJSON(w, LabelResponse{Address: r.URL.Query().Get("address"), Label: PhishLabel})
		}))
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				conns.Add(1)
			}
		}
		srv.Start()
		label, err := NewCrawler(srv.URL).Label(context.Background(), chain.DeriveAddress(1, 1).String())
		srv.Close()
		if err != nil || label != PhishLabel {
			t.Fatalf("status %d: Label = (%q, %v), want %q", status, label, err, PhishLabel)
		}
		if calls.Load() != 5 || conns.Load() != 1 {
			t.Errorf("status %d: %d requests over %d connections, want 5 over 1", status, calls.Load(), conns.Load())
		}
	}
}

func TestLabelErrors(t *testing.T) {
	c := testChain(t, 9)
	svc := NewService(c, ServiceConfig{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	crawler := NewCrawler(srv.URL)
	ctx := context.Background()

	if _, err := crawler.Label(ctx, "garbage"); err == nil {
		t.Error("bad address did not error")
	}
	if _, err := crawler.Label(ctx, chain.DeriveAddress(123, 456).String()); err == nil {
		t.Error("unknown contract did not error")
	}
}

func TestLabelAllContextCancellation(t *testing.T) {
	c := testChain(t, 10)
	svc := NewService(c, ServiceConfig{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	crawler := NewCrawler(srv.URL, WithWorkers(2))

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before starting: the feed loop must bail out
	addrs := make([]string, 0, c.Len())
	for _, ct := range c.All() {
		addrs = append(addrs, ct.Addr.String())
	}
	done := make(chan struct{})
	go func() {
		crawler.LabelAll(ctx, addrs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("LabelAll did not terminate after cancellation")
	}
}

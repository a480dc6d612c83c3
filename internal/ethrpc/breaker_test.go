package ethrpc

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// tornServer answers 200 with truncated JSON while broken, and proxies to a
// real chain server once healed — the malformed-response mode the chaos
// plane's KindMalformed windows inject.
func tornServer(t *testing.T, c interface {
	http.Handler
}) (*httptest.Server, *atomic.Bool, *atomic.Int64) {
	t.Helper()
	var broken atomic.Bool
	broken.Store(true)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if broken.Load() {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"jsonrpc":"2.0","id":1,"result":`) // torn JSON
			return
		}
		c.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &broken, &calls
}

// TestBreakerTripsOnMalformedStreak drives a plane whose every endpoint
// answers malformed JSON (the plane-wide garbage storm the chaos soaks
// inject): each node's failure streak must hard-trip its breaker, and with
// every breaker open the scheduler must refuse to keep hammering the nodes
// rather than spin.
func TestBreakerTripsOnMalformedStreak(t *testing.T) {
	c := testChain(t)
	inner := NewServer(c, 1)
	a, _, aCalls := tornServer(t, inner)
	b, _, bCalls := tornServer(t, inner)

	mc, err := NewMultiClient([]string{a.URL, b.URL},
		WithPlaneRetries(4, time.Millisecond),
		WithPlaneBreaker(3, time.Hour)) // no re-probe within the test
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		callCtx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
		_, err := mc.BlockNumber(callCtx)
		cancel()
		if err == nil {
			t.Fatalf("call %d succeeded against all-malformed endpoints", i)
		}
	}

	var trips uint64
	for _, s := range mc.Stats() {
		trips += s.BreakerTrips
		if !s.BreakerOpen {
			t.Errorf("endpoint %s breaker not open after malformed streaks: %+v", s.URL, s)
		}
	}
	if trips == 0 {
		t.Fatal("no breaker tripped on a sustained malformed-response streak")
	}

	// Exclusion: with both breakers open and a one-hour cooldown, a further
	// call must park in Acquire (nothing schedulable) instead of hammering
	// the broken nodes.
	before := aCalls.Load() + bCalls.Load()
	blockedCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if _, err := mc.BlockNumber(blockedCtx); err == nil {
		t.Fatal("call succeeded with every breaker open")
	}
	if after := aCalls.Load() + bCalls.Load(); after != before {
		t.Fatalf("open breakers still let %d calls through", after-before)
	}
}

// TestBreakerHalfOpenReprobe heals the endpoints after the trip and verifies
// the cooldown's half-open probe readmits them: calls succeed again and the
// breaker closes without manual intervention — the ≤2-polling-window recovery
// contract depends on exactly this reopen path.
func TestBreakerHalfOpenReprobe(t *testing.T) {
	c := testChain(t)
	inner := NewServer(c, 1)
	a, aBroken, _ := tornServer(t, inner)
	b, bBroken, _ := tornServer(t, inner)

	cooldown := 20 * time.Millisecond
	mc, err := NewMultiClient([]string{a.URL, b.URL},
		WithPlaneRetries(4, time.Millisecond),
		WithPlaneBreaker(3, cooldown))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tripped := func() uint64 {
		var n uint64
		for _, s := range mc.Stats() {
			n += s.BreakerTrips
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for tripped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped while every endpoint was malformed")
		}
		callCtx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
		mc.BlockNumber(callCtx)
		cancel()
	}

	aBroken.Store(false)
	bBroken.Store(false)
	time.Sleep(2 * cooldown)
	got, err := mc.BlockNumber(ctx)
	if err != nil {
		t.Fatalf("healed plane still failing after the cooldown: %v", err)
	}
	if want := c.HeadBlock(); got != want {
		t.Fatalf("BlockNumber = %d, want %d", got, want)
	}
	// A successful probe closes the breaker on whichever node served it.
	closed := false
	for _, s := range mc.Stats() {
		if s.BreakerTrips > 0 && !s.BreakerOpen {
			closed = true
		}
	}
	if !closed {
		t.Fatalf("no breaker closed after a successful half-open probe: %+v", mc.Stats())
	}
}

package ethrpc

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
)

func batchAddrs(c *chain.Chain, n int) []chain.Address {
	all := c.All()
	if n > len(all) {
		n = len(all)
	}
	addrs := make([]chain.Address, n)
	for i := 0; i < n; i++ {
		addrs[i] = all[i].Addr
	}
	return addrs
}

// TestMultiClientSingleEndpointRunsPlane pins one endpoint onto the plane:
// it absorbs transient faults through the plane's retries and reports the
// AIMD window like any plane node.
func TestMultiClientSingleEndpointRunsPlane(t *testing.T) {
	c := testChain(t)
	inner := NewServer(c, 1)
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	mc, err := NewMultiClient([]string{flaky.URL})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Endpoints() != 1 {
		t.Fatalf("Endpoints = %d, want 1", mc.Endpoints())
	}
	ctx := context.Background()
	addrs := batchAddrs(c, 8)
	codes, err := mc.GetCodeBatch(ctx, addrs)
	if err != nil {
		t.Fatalf("GetCodeBatch through flaky server: %v", err)
	}
	for i, ct := range c.All()[:8] {
		if !bytes.Equal(codes[i], ct.Code) {
			t.Fatalf("item %d: %d bytes, want %d", i, len(codes[i]), len(ct.Code))
		}
	}
	// Two 500s and a success, all on the lone endpoint.
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3 (2 failures + success)", calls.Load())
	}
	// 500s leave the window alone; the success grows it by 1/limit.
	s := mc.Stats()
	if want := aimdInitialLimit + 1.0/aimdInitialLimit; len(s) != 1 || s[0].Successes != 1 || s[0].Limit != want {
		t.Errorf("single-endpoint stats off: %+v, want 1 success and window %.2f", s, want)
	}
}

// TestMultiClientSpreadsLoad checks that with several healthy endpoints the
// scheduler actually uses more than one of them.
func TestMultiClientSpreadsLoad(t *testing.T) {
	c := testChain(t)
	var urls []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(NewServer(c, 1))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	mc, err := NewMultiClient(urls)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	addrs := batchAddrs(c, 16)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes, err := mc.GetCodeBatch(ctx, addrs)
			if err == nil && len(codes) != len(addrs) {
				err = fmt.Errorf("got %d codes, want %d", len(codes), len(addrs))
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	used := 0
	for _, s := range mc.Stats() {
		if s.Requests > 0 {
			used++
		}
		if s.Inflight != 0 {
			t.Errorf("endpoint %s still shows %d inflight after all calls returned", s.URL, s.Inflight)
		}
	}
	if used < 2 {
		t.Errorf("only %d endpoints used, want load spread over >= 2", used)
	}
}

// TestMultiClientAIMDUnder429Storm hammers a plane where two of three
// endpoints always answer 429, from many goroutines at once (run under
// -race in CI): every call must still succeed by converging onto the
// healthy endpoint, the stormed endpoints' AIMD windows must have been
// halved toward the floor, and their health must sit below the survivor's.
func TestMultiClientAIMDUnder429Storm(t *testing.T) {
	c := testChain(t)
	healthy := httptest.NewServer(NewServer(c, 1))
	defer healthy.Close()
	var stormed []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "0.001")
			http.Error(w, "rate limited", http.StatusTooManyRequests)
		}))
		defer srv.Close()
		stormed = append(stormed, srv.URL)
	}
	mc, err := NewMultiClient(append(stormed, healthy.URL),
		WithPlaneRetries(8, time.Millisecond), WithPlaneMaxConcurrency(16))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	addrs := batchAddrs(c, 8)
	var wg sync.WaitGroup
	errs := make(chan error, 20*10)
	for g := 0; g < 20; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, err := mc.GetCodeBatch(ctx, addrs)
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("call failed despite a healthy endpoint: %v", err)
		}
	}
	stats := mc.Stats()
	var healthyStats EndpointStats
	for _, s := range stats {
		if s.URL == healthy.URL {
			healthyStats = s
		}
	}
	// Every one of the 200 calls succeeded, and only the healthy endpoint
	// can succeed — the plane converged onto it.
	if healthyStats.Successes != 200 {
		t.Errorf("healthy endpoint served %d calls, want all 200", healthyStats.Successes)
	}
	var totalStormed uint64
	for _, s := range stats {
		if s.URL == healthy.URL {
			continue
		}
		totalStormed += s.RateLimited
		if s.RateLimited == 0 {
			continue // shunned before a second probe: nothing to assert
		}
		if s.Limit < 1 || s.Limit > 16 {
			t.Errorf("stormed endpoint limit %.1f outside [1, 16]", s.Limit)
		}
		if s.Health >= healthyStats.Health {
			t.Errorf("stormed endpoint health %.3f not below healthy %.3f", s.Health, healthyStats.Health)
		}
	}
	if totalStormed == 0 {
		t.Error("no 429s recorded — the storm never hit the scheduler")
	}
}

// TestMultiClientHedgeRescuesStraggler puts a deliberately slow endpoint
// first (ties in the scheduler resolve to slice order, so it becomes the
// primary) and checks the hedge races the request onto the fast endpoint
// instead of waiting out the straggler.
func TestMultiClientHedgeRescuesStraggler(t *testing.T) {
	c := testChain(t)
	fast := httptest.NewServer(NewServer(c, 1))
	defer fast.Close()
	inner := NewServer(c, 1)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(3 * time.Second):
		}
		inner.ServeHTTP(w, r)
	}))
	defer slow.Close()

	mc, err := NewMultiClient([]string{slow.URL, fast.URL}, WithPlaneHedge(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	addrs := batchAddrs(c, 4)
	t0 := time.Now()
	codes, err := mc.GetCodeBatch(ctx, addrs)
	if err != nil {
		t.Fatalf("hedged GetCodeBatch: %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Errorf("hedged call took %v — the straggler was waited out", elapsed)
	}
	for i, ct := range c.All()[:4] {
		if !bytes.Equal(codes[i], ct.Code) {
			t.Fatalf("item %d wrong", i)
		}
	}
	var hedges uint64
	for _, s := range mc.Stats() {
		hedges += s.Hedges
	}
	if hedges == 0 {
		t.Error("no hedge recorded for a stalled primary")
	}
}

// TestMultiClientFailsOverFromDeadEndpoint checks a hard-down endpoint
// (connection refused) doesn't take the plane down with it.
func TestMultiClientFailsOverFromDeadEndpoint(t *testing.T) {
	c := testChain(t)
	alive := httptest.NewServer(NewServer(c, 1))
	defer alive.Close()
	dead := httptest.NewServer(http.HandlerFunc(nil))
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore

	mc, err := NewMultiClient([]string{deadURL, alive.URL}, WithPlaneRetries(4, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := mc.BlockNumber(ctx); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	for _, s := range mc.Stats() {
		if s.URL == deadURL && s.Failures == 0 && s.Requests > 0 {
			t.Error("dead endpoint's failures were not recorded")
		}
		if s.URL == alive.URL && s.Successes == 0 {
			t.Error("alive endpoint served nothing")
		}
	}
}

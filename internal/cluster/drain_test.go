package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/httpapi"
)

// flakyReplica answers its first four scoring requests with status and a
// body worth draining, then serves normally, and counts the TCP connections
// it accepts.
func flakyReplica(t *testing.T, status int) (srv *httptest.Server, calls, conns *atomic.Int64) {
	t.Helper()
	calls, conns = new(atomic.Int64), new(atomic.Int64)
	ok := (&stubReplica{}).handler()
	srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 4 {
			http.Error(w, strings.Repeat("busy ", 200), status)
			return
		}
		ok.ServeHTTP(w, r)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, calls, conns
}

// TestScoreClientKeepsConnectionAcrossErrorStatuses pins the bounded drain
// in ScoreClient: four 429s (or 502s) and then a 200 must travel over one
// TCP connection. Closing an unread error body makes the transport drop the
// connection, so every retry would dial a new one.
func TestScoreClientKeepsConnectionAcrossErrorStatuses(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusBadGateway} {
		for _, path := range []string{"/score", "/score/tx"} {
			srv, calls, conns := flakyReplica(t, status)
			c := NewScoreClient(srv.URL, WithScoreRetries(5, 2*time.Millisecond))
			var err error
			if path == "/score" {
				_, err = c.ScoreHexBatch(context.Background(), []string{"0x6080"})
			} else {
				_, err = c.ScoreTxBatch(context.Background(), []httpapi.TxScoreItem{{Calldata: "0x01", Code: "0x6080"}})
			}
			if err != nil {
				t.Fatalf("status %d %s: %v", status, path, err)
			}
			if calls.Load() != 5 || conns.Load() != 1 {
				t.Errorf("status %d %s: %d requests over %d connections, want 5 over 1", status, path, calls.Load(), conns.Load())
			}
		}
	}
}

// TestRouterKeepsConnectionAcrossErrorStatuses pins the same drain on the
// router's replica exchanges, /score and /score/tx alike.
func TestRouterKeepsConnectionAcrossErrorStatuses(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusBadGateway} {
		for _, path := range []string{"/score", "/score/tx"} {
			srv, calls, conns := flakyReplica(t, status)
			rt, err := NewRouter(Config{Replicas: []string{srv.URL}, Vnodes: 4, Attempts: 5, Backoff: 2 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if path == "/score" {
				_, err = rt.RouteBatch(context.Background(), testCodes(1))
			} else {
				_, err = rt.RouteTxBatch(context.Background(), []httpapi.TxScoreItem{{Calldata: "0x01", Code: "0x6080"}})
			}
			if err != nil {
				t.Fatalf("status %d %s: %v", status, path, err)
			}
			if calls.Load() != 5 || conns.Load() != 1 {
				t.Errorf("status %d %s: %d requests over %d connections, want 5 over 1", status, path, calls.Load(), conns.Load())
			}
		}
	}
}

// TestRollingReloadKeepsConnectionAcrossNotReady pins the same drain on the
// router's admin helpers: a reload followed by four 503s from /readyz and
// then a 200 must travel over one TCP connection.
func TestRollingReloadKeepsConnectionAcrossNotReady(t *testing.T) {
	var conns, readyz atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/admin/reload":
			httpapi.WriteJSON(w, http.StatusOK, map[string]string{"champion": "v1"})
		case "/readyz":
			if readyz.Add(1) <= 4 {
				http.Error(w, strings.Repeat("loading ", 200), http.StatusServiceUnavailable)
			}
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	rt, err := NewRouter(Config{Replicas: []string{srv.URL}, Vnodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	steps, err := rt.RollingReload(context.Background())
	if err != nil || len(steps) != 1 || steps[0].Champion != "v1" {
		t.Fatalf("RollingReload = (%+v, %v), want one step to champion v1", steps, err)
	}
	if readyz.Load() != 5 || conns.Load() != 1 {
		t.Errorf("reload and %d readiness polls over %d connections, want 5 polls over 1", readyz.Load(), conns.Load())
	}
}

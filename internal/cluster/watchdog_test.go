package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/evm"
	"github.com/phishinghook/phishinghook/internal/httpapi"
)

// stubReplica speaks the replica wire protocol with canned verdicts: /score
// answers one verdict per bytecode at confidence 0.9, phishing unless benign
// is set (with evasion telemetry when telemetry is set before serving),
// /score/tx fuses or faults according to txDown, and hang inserts a
// context-aware stall so a test can simulate a replica that accepts
// connections but never answers in time.
type stubReplica struct {
	hang      atomic.Bool
	txDown    atomic.Bool
	benign    atomic.Bool
	calls     atomic.Int64
	telemetry bool
}

func (s *stubReplica) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/score", func(w http.ResponseWriter, r *http.Request) {
		s.calls.Add(1)
		if s.stall(r) {
			return
		}
		var req httpapi.ScoreRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpapi.Error(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		vs := make([]httpapi.Verdict, len(req.Bytecodes))
		for i := range vs {
			vs[i] = httpapi.Verdict{Label: "phishing", Phishing: true, Confidence: 0.9, Model: "stub", ModelVersion: "v1"}
			if s.benign.Load() {
				vs[i].Label, vs[i].Phishing = "benign", false
			}
			if s.telemetry {
				vs[i].DeadCodeRatio, vs[i].ScoreDivergence, vs[i].EvasionSuspect = 0.25, 0.125, true
			}
		}
		httpapi.WriteJSON(w, http.StatusOK, httpapi.ScoreResponse{Verdicts: vs})
	})
	mux.HandleFunc("/score/tx", func(w http.ResponseWriter, r *http.Request) {
		s.calls.Add(1)
		if s.stall(r) {
			return
		}
		if s.txDown.Load() {
			httpapi.Error(w, http.StatusInternalServerError, "calldata model faulted")
			return
		}
		var req httpapi.TxScoreRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpapi.Error(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		vs := make([]httpapi.Verdict, len(req.Txs))
		for i := range vs {
			vs[i] = httpapi.Verdict{Label: "phishing", Phishing: true, Confidence: 0.9, Model: "stub",
				Modality: "tx", PayloadProb: 0.8, CodeProb: 0.9}
		}
		httpapi.WriteJSON(w, http.StatusOK, httpapi.ScoreResponse{Verdicts: vs})
	})
	return mux
}

// stall blocks a hung replica until the client gives up; reports true when
// the exchange was abandoned.
func (s *stubReplica) stall(r *http.Request) bool {
	if !s.hang.Load() {
		return false
	}
	select {
	case <-r.Context().Done():
	case <-time.After(5 * time.Second): // backstop; clients time out long before
	}
	return true
}

func testCodes(n int) [][]byte {
	codes := make([][]byte, n)
	for i := range codes {
		codes[i] = []byte(fmt.Sprintf("\x60\x80bytecode-%d", i))
	}
	return codes
}

// TestWatchdogEjectsHungReplica hangs one of two replicas (accepting
// connections, never answering inside Timeout) and verifies the router's
// watchdog ejects it after the configured streak while every batch still
// scores via the healthy ring neighbor — and that after ejection the hung
// replica stops absorbing sub-batches at all.
func TestWatchdogEjectsHungReplica(t *testing.T) {
	hung := &stubReplica{}
	hung.hang.Store(true)
	fast := &stubReplica{}
	hsrv := httptest.NewServer(hung.handler())
	defer hsrv.Close()
	fsrv := httptest.NewServer(fast.handler())
	defer fsrv.Close()

	rt, err := NewRouter(Config{
		Replicas:         []string{hsrv.URL, fsrv.URL},
		Vnodes:           16,
		Timeout:          40 * time.Millisecond,
		Attempts:         2,
		Backoff:          time.Millisecond,
		WatchdogStreak:   2,
		WatchdogCooldown: time.Hour, // stays demoted for the whole test
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	codes := testCodes(32) // spreads sub-batches across both owners

	deadline := time.Now().Add(15 * time.Second)
	for rt.Stats().Ejections == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never ejected the hung replica: %+v", rt.Stats())
		}
		vs, err := rt.RouteBatch(ctx, codes)
		if err != nil {
			t.Fatalf("batch failed despite a healthy neighbor: %v", err)
		}
		if len(vs) != len(codes) {
			t.Fatalf("got %d verdicts for %d codes", len(vs), len(codes))
		}
	}

	// Demotion moves the healthy neighbor to the front of every candidate
	// list, so the hung replica should see no further traffic.
	before := hung.calls.Load()
	for i := 0; i < 3; i++ {
		if _, err := rt.RouteBatch(ctx, codes); err != nil {
			t.Fatalf("post-ejection batch: %v", err)
		}
	}
	if after := hung.calls.Load(); after != before {
		t.Fatalf("ejected replica still received %d sub-batches", after-before)
	}
}

// TestTxFallbackCodeOnly faults /score/tx on every replica while /score
// stays healthy: RouteTxBatch must degrade to code-only verdicts (Modality
// "tx", payload probability zeroed, confidence from the code half, code
// probability the code verdict's P(phishing) for a phishing and a benign
// callee alike) instead of erroring, and count them in Stats().Degraded.
func TestTxFallbackCodeOnly(t *testing.T) {
	reps := []*stubReplica{{}, {}}
	var urls []string
	for _, s := range reps {
		s.txDown.Store(true)
		srv := httptest.NewServer(s.handler())
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	rt, err := NewRouter(Config{
		Replicas: urls,
		Vnodes:   16,
		Attempts: 2,
		Backoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	items := []httpapi.TxScoreItem{
		{Calldata: "0x01", Code: evm.EncodeHex([]byte("\x60\x80code-a"))},
		{Calldata: "0x02", Code: evm.EncodeHex([]byte("\x60\x80code-b"))},
		{Calldata: "0x03"}, // EOA callee: no code evidence to fall back on
	}
	vs, err := rt.RouteTxBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("RouteTxBatch should degrade, not fail: %v", err)
	}
	if len(vs) != len(items) {
		t.Fatalf("got %d verdicts for %d txs", len(vs), len(items))
	}
	for i, v := range vs[:2] {
		if v.Modality != "tx" {
			t.Errorf("verdict %d modality = %q, want tx", i, v.Modality)
		}
		if !v.Phishing || v.PayloadProb != 0 || v.CodeProb != v.Confidence {
			t.Errorf("verdict %d not a code-only degrade: %+v", i, v)
		}
	}
	if v := vs[2]; v.Phishing || v.Modality != "tx" {
		t.Errorf("EOA verdict should be benign tx-modality: %+v", v)
	}
	if d := rt.Stats().Degraded; d != uint64(len(items)) {
		t.Errorf("Degraded = %d, want %d", d, len(items))
	}

	// Healing the fused path ends the degraded mode: fresh verdicts carry
	// payload evidence again and the counter stops advancing.
	for _, s := range reps {
		s.txDown.Store(false)
	}
	vs, err = rt.RouteTxBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].PayloadProb == 0 {
		t.Errorf("fused path healed but verdict still degraded: %+v", vs[0])
	}
	if d := rt.Stats().Degraded; d != uint64(len(items)) {
		t.Errorf("Degraded advanced after recovery: %d", d)
	}

	// A benign callee degrades to P(phishing | code) = 1 − confidence, the
	// code_prob the fused path reports for it, not to the confidence behind
	// its benign label.
	for _, s := range reps {
		s.benign.Store(true)
		s.txDown.Store(true)
	}
	vs, err = rt.RouteTxBatch(context.Background(), items[:2])
	if err != nil {
		t.Fatalf("RouteTxBatch should degrade, not fail: %v", err)
	}
	for i, v := range vs {
		if v.Phishing || v.Label != "benign" || v.Modality != "tx" || v.PayloadProb != 0 || v.CodeProb != 1-v.Confidence {
			t.Errorf("benign verdict %d not a code-only degrade at P(phishing | code): %+v", i, v)
		}
	}
}

// TestTxFallbackKeepsTelemetry checks that a code-only degraded tx verdict
// carries the code verdict's evasion telemetry: a fused-path fault must not
// also hide that the callee looks evasive.
func TestTxFallbackKeepsTelemetry(t *testing.T) {
	s := &stubReplica{telemetry: true}
	s.txDown.Store(true)
	srv := httptest.NewServer(s.handler())
	defer srv.Close()
	rt, err := NewRouter(Config{Replicas: []string{srv.URL}, Vnodes: 4, Attempts: 2, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := rt.RouteTxBatch(context.Background(), []httpapi.TxScoreItem{
		{Calldata: "0x01", Code: evm.EncodeHex([]byte("\x60\x80code-a"))},
	})
	if err != nil {
		t.Fatalf("RouteTxBatch should degrade, not fail: %v", err)
	}
	want := httpapi.Verdict{Label: "phishing", Phishing: true, Confidence: 0.9, Model: "stub", ModelVersion: "v1",
		Modality: "tx", CodeProb: 0.9, DeadCodeRatio: 0.25, ScoreDivergence: 0.125, EvasionSuspect: true}
	if len(vs) != 1 || vs[0] != want {
		t.Fatalf("degraded verdicts %+v, want [%+v]", vs, want)
	}
	if d := rt.Stats().Degraded; d != 1 {
		t.Fatalf("Degraded = %d, want 1", d)
	}
}

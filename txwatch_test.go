package phishinghook

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// trainFusedPair trains both modality halves on the simulation's released
// prefix: the Calldata Forest on the tx corpus, the Random Forest on the
// contract corpus, fused with noisy-OR.
func trainFusedPair(t *testing.T, sim *Simulation) (TxScorer, *Detector, *Detector) {
	t.Helper()
	pspec, err := CalldataModel()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := Train(pspec, sim.TxDataset(), WithDetectorSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	cspec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	code, err := Train(cspec, sim.Dataset(), WithDetectorSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	fused, err := NewFusedTxScorer(payload, code)
	if err != nil {
		t.Fatal(err)
	}
	return fused, payload, code
}

// TestFusedCachedPathZeroAllocs pins the tx-modality hot-path contract with
// real trained detectors (not stubs): once both digest caches hold the
// (calldata, callee code) pair, a fused ScoreTx allocates nothing.
func TestFusedCachedPathZeroAllocs(t *testing.T) {
	sim := startSim(t, 21)
	fused, _, _ := trainFusedPair(t, sim)
	calldata := sim.TxDataset().Samples[0].Bytecode
	code := sim.Dataset().Samples[0].Bytecode
	ctx := context.Background()
	if _, err := fused.ScoreTx(ctx, calldata, code); err != nil { // warm both caches
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := fused.ScoreTx(ctx, calldata, code); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached fused ScoreTx allocates %.1f objects/op, want 0", allocs)
	}
}

// TestServeTxScoreEndpoint exercises POST /score/tx on the serving layer —
// single and batch forms, EOA callees, tx-modality wire fields — and checks
// the satellite guarantee that contract /score responses are byte-for-byte
// unchanged (no modality keys leak into the default wire format).
func TestServeTxScoreEndpoint(t *testing.T) {
	sim := startSim(t, 23)
	fused, _, codeDet := trainFusedPair(t, sim)
	srv := httptest.NewServer(NewScoreHandler(codeDet, WithTxScorer(fused)))
	t.Cleanup(srv.Close)

	calldata := sim.TxDataset().Samples[0].Bytecode
	code := sim.Dataset().Samples[0].Bytecode

	postTx := func(req TxScoreRequest) (*http.Response, ScoreResponse) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/score/tx", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out ScoreResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp, out
	}

	// Single tx with both sides present.
	resp, out := postTx(TxScoreRequest{Tx: &TxScoreItem{Calldata: EncodeHex(calldata), Code: EncodeHex(code)}})
	if resp.StatusCode != http.StatusOK || out.Verdict == nil {
		t.Fatalf("single tx: status %d, %+v", resp.StatusCode, out)
	}
	if out.Verdict.Modality != "tx" {
		t.Fatalf("tx verdict modality %q, want tx", out.Verdict.Modality)
	}
	if !strings.Contains(out.Verdict.Model, "+") {
		t.Fatalf("fused verdict model %q should name both halves", out.Verdict.Model)
	}

	// Batch with an EOA callee (no code) and a bare transfer (no calldata).
	resp, out = postTx(TxScoreRequest{Txs: []TxScoreItem{
		{Calldata: EncodeHex(calldata)},
		{Code: EncodeHex(code)},
	}})
	if resp.StatusCode != http.StatusOK || len(out.Verdicts) != 2 {
		t.Fatalf("batch: status %d, %d verdicts", resp.StatusCode, len(out.Verdicts))
	}
	for i, v := range out.Verdicts {
		if v.Modality != "tx" {
			t.Fatalf("batch verdict %d modality %q", i, v.Modality)
		}
	}

	// An empty request is refused.
	if resp, _ := postTx(TxScoreRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty tx request status %d, want 400", resp.StatusCode)
	}

	// Contract /score stays byte-for-byte free of modality fields.
	body, _ := json.Marshal(ScoreRequest{Bytecode: EncodeHex(code)})
	cresp, err := http.Post(srv.URL+"/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	for _, leak := range []string{"modality", "payload_prob", "code_prob"} {
		if strings.Contains(string(raw), leak) {
			t.Fatalf("contract /score response leaked %q: %s", leak, raw)
		}
	}
}

// TestTxWatchFusedPrecisionEndToEnd drives the whole tx modality the way
// `phishinghook txwatch` wires it: live chain with pending-tx traffic,
// detectors trained on the released prefix, fused scoring, checkpointed
// dedup. Every alert must be unique per tx hash and the fused alert
// precision against the simulation's tx ground truth must clear 50%.
func TestTxWatchFusedPrecisionEndToEnd(t *testing.T) {
	sim := startSim(t, 31)
	if err := sim.GoLive(10); err != nil {
		t.Fatal(err)
	}
	start, tail := sim.HeadBlock(), sim.TailBlock()
	fused, _, _ := trainFusedPair(t, sim) // released prefix only

	var mu sync.Mutex
	var alerts []Alert
	w, err := NewTxWatcher(fused, TxWatcherConfig{
		RPCURL:         sim.RPCURL(),
		PollInterval:   time.Millisecond,
		StartBlock:     start,
		StopAtBlock:    tail,
		Threshold:      0.7,
		ScoreWorkers:   4,
		CheckpointPath: filepath.Join(t.TempDir(), "tx.cursor"),
		Sinks: []AlertSink{NewFuncSink(func(a Alert) error {
			mu.Lock()
			alerts = append(alerts, a)
			mu.Unlock()
			return nil
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	// Release the window in thirds so the feed sees several head advances.
	for _, h := range []uint64{start + (tail-start)/3, start + 2*(tail-start)/3, tail} {
		sim.AdvanceBlocks(h - sim.HeadBlock())
	}
	if err := <-done; err != nil {
		t.Fatalf("tx watch run: %v", err)
	}

	s := w.Stats()
	if s.Cursor != tail {
		t.Fatalf("cursor = %d, want tail %d", s.Cursor, tail)
	}
	if s.Modality != "tx" {
		t.Fatalf("stats modality %q", s.Modality)
	}
	if s.Poisoned != 0 || s.Errors != 0 {
		t.Fatalf("clean run poisoned %d txs, %d errors", s.Poisoned, s.Errors)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(alerts) == 0 {
		t.Fatal("no tx alerts for a window with planted drainer traffic")
	}
	seen := map[string]bool{}
	truePos := 0
	for _, a := range alerts {
		if a.Modality != "tx" || a.TxHash == "" {
			t.Fatalf("malformed tx alert %+v", a)
		}
		if seen[a.TxHash] {
			t.Fatalf("tx %s alerted twice", a.TxHash)
		}
		seen[a.TxHash] = true
		malicious, ok := sim.TxGroundTruth(a.TxHash)
		if !ok {
			t.Fatalf("alerted tx %s unknown to the chain", a.TxHash)
		}
		if malicious {
			truePos++
		}
	}
	if truePos*2 < len(alerts) {
		t.Fatalf("fused tx-alert precision %d/%d below 50%%", truePos, len(alerts))
	}

	// The window's drainer traffic must actually have been caught, not just
	// avoided: at least one alert per two planted drainers in the window.
	drainers := 0
	for _, tx := range sim.chain.TxsInRange(start+1, tail) {
		if tx.Drainer {
			drainers++
		}
	}
	if drainers == 0 {
		t.Skip("window has no planted drainers at this seed")
	}
	if truePos*2 < drainers {
		t.Fatalf("caught %d of %d planted drainers", truePos, drainers)
	}
}

// TestTxFeedOutpacesContractWatcher gates the tx modality's item-rate
// amortization: on one endpoint limited to 800 items/s (burst 64), the
// pending-tx watcher judges txs at least 5x as fast as the contract watcher
// judges contracts. The contract watcher pays one quota item per
// eth_getCode; the feed pays one per poll of up to 512 txs, and callee
// codes amortize further through the watcher's LRU.
func TestTxFeedOutpacesContractWatcher(t *testing.T) {
	sim, codeDet := quotaFixture(t, 400, 1500)
	pspec, err := CalldataModel()
	if err != nil {
		t.Fatal(err)
	}
	payloadDet, err := Train(pspec, sim.TxDataset(), WithDetectorSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sim.TxDataset().Samples { // warm the payload cache too
		if _, err := payloadDet.Score(context.Background(), s.Bytecode); err != nil {
			t.Fatal(err)
		}
	}
	fused, err := NewFusedTxScorer(payloadDet, codeDet)
	if err != nil {
		t.Fatal(err)
	}
	url := sim.AddRPCEndpoints(1, 800, 64)[0]
	bestOfRounds(t, 5.0, func() float64 {
		contractsPerSec := float64(sim.NumContracts()) / watchSeconds(t, sim, codeDet, url)
		tw, err := NewTxWatcher(fused, TxWatcherConfig{RPCURL: url, PollInterval: time.Millisecond,
			StopAtBlock: sim.TailBlock(), Threshold: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		return float64(sim.NumTxs()) / timeRun(t, tw.Run) / contractsPerSec
	})
}

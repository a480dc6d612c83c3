package phishinghook

import (
	"context"
	"crypto/sha256"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/monitor"
)

// countingScorer wraps the detector adapter and counts scores per unique
// bytecode — the exactly-once oracle for the live-watch tests.
type countingScorer struct {
	inner monitor.Scorer

	mu     sync.Mutex
	counts map[[32]byte]int
}

func (c *countingScorer) ScoreCode(ctx context.Context, code []byte) (monitor.Verdict, error) {
	h := sha256.Sum256(code)
	c.mu.Lock()
	c.counts[h]++
	c.mu.Unlock()
	return c.inner.ScoreCode(ctx, code)
}

func (c *countingScorer) maxCount() (max int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.counts {
		if n > max {
			max = n
		}
	}
	return max
}

func waitForCursor(t *testing.T, w *Watcher, block uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for w.Cursor() < block {
		if time.Now().After(deadline) {
			t.Fatalf("watcher cursor stuck at %d, want %d", w.Cursor(), block)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchLiveChainEndToEnd drives the full Watchtower stack — live chain,
// block clock, trained detector, checkpoint, sinks, serving metrics — the
// way `phishinghook watch` wires it: deployments released across several
// blocks are each scored exactly once, planted phishing fires alerts, and a
// killed-and-restarted watcher resumes from its checkpoint without
// re-scoring anything.
func TestWatchLiveChainEndToEnd(t *testing.T) {
	sim2 := startSim(t, 17)
	if err := sim2.GoLive(10); err != nil {
		t.Fatal(err)
	}
	start, tail := sim2.HeadBlock(), sim2.TailBlock()
	mid := (start + tail) / 2

	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, sim2.Dataset(), WithDetectorSeed(3)) // released prefix only
	if err != nil {
		t.Fatal(err)
	}
	scorer := &countingScorer{inner: codeScorer{det}, counts: make(map[[32]byte]int)}

	var alertMu sync.Mutex
	var alerts []Alert
	ckpt := filepath.Join(t.TempDir(), "cursor.json")
	cfg := monitor.Config{
		RPCURL:         sim2.RPCURL(),
		ExplorerURL:    sim2.ExplorerURL(),
		PollInterval:   time.Millisecond,
		StartBlock:     start,
		StopAtBlock:    mid,
		CheckpointPath: ckpt,
		Threshold:      0.6,
		Sinks: []monitor.Sink{NewFuncSink(func(a Alert) error {
			alertMu.Lock()
			alerts = append(alerts, a)
			alertMu.Unlock()
			return nil
		})},
	}
	w1, err := monitor.New(scorer, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w1.Run(ctx) }()

	// Release the window in several steps so the watcher scans multiple
	// head advances rather than one big leap.
	for _, h := range []uint64{start + (mid-start)/3, start + 2*(mid-start)/3, mid} {
		sim2.AdvanceBlocks(h - sim2.HeadBlock())
		waitForCursor(t, w1, h)
	}
	if err := <-done; err != nil {
		t.Fatalf("phase 1 Run: %v", err)
	}
	s1 := w1.Stats()
	if s1.Cursor != mid {
		t.Fatalf("phase-1 cursor = %d, want %d", s1.Cursor, mid)
	}
	if s1.BlocksSeen != mid-start {
		t.Errorf("BlocksSeen = %d, want %d", s1.BlocksSeen, mid-start)
	}

	// Restart from the checkpoint ("kill" = the first watcher is gone) and
	// release the rest of the window.
	w2, err := monitor.New(scorer, monitor.Config{
		RPCURL:         sim2.RPCURL(),
		ExplorerURL:    sim2.ExplorerURL(),
		PollInterval:   time.Millisecond,
		StartBlock:     0, // checkpoint must win over this
		StopAtBlock:    tail,
		CheckpointPath: ckpt,
		Threshold:      0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Cursor() != mid {
		t.Fatalf("restarted cursor = %d, want checkpointed %d", w2.Cursor(), mid)
	}
	sim2.AdvanceBlocks(tail - sim2.HeadBlock())
	if err := w2.Run(ctx); err != nil {
		t.Fatalf("phase 2 Run: %v", err)
	}
	s2 := w2.Stats()
	if s2.Cursor != tail {
		t.Fatalf("phase-2 cursor = %d, want tail %d", s2.Cursor, tail)
	}

	// With the full window released, confirm the corpus actually exercised
	// multi-block release and collect the expected unique bytecode set.
	blocks := map[uint64]bool{}
	uniqueAll := map[[32]byte]bool{}
	for _, ct := range sim2.chain.ContractsInRange(start+1, tail) {
		blocks[ct.Block] = true
		uniqueAll[sha256.Sum256(ct.Code)] = true
	}
	if len(blocks) < 3 {
		t.Fatalf("test corpus only spans %d blocks, need >= 3", len(blocks))
	}

	// Exactly-once across the whole window, restart included.
	if got := scorer.maxCount(); got != 1 {
		t.Errorf("a bytecode was scored %d times, want exactly once", got)
	}
	totalScored := int(s1.ContractsScored + s2.ContractsScored)
	if totalScored != len(uniqueAll) {
		t.Errorf("scored %d unique bytecodes, window holds %d", totalScored, len(uniqueAll))
	}
	if seen := int(s1.ContractsSeen + s2.ContractsSeen); seen != totalScored+int(s1.DedupHits+s2.DedupHits) {
		t.Errorf("accounting leak: seen %d != scored %d + dedup %d",
			seen, totalScored, s1.DedupHits+s2.DedupHits)
	}

	// Planted phishing must alert, and alerts must point at real phishing
	// contracts (ground truth, not the noisy explorer labels).
	alertMu.Lock()
	defer alertMu.Unlock()
	if len(alerts) == 0 {
		t.Fatal("no alerts for a window with planted phishing contracts")
	}
	truePos := 0
	for _, a := range alerts {
		if phishing, ok := sim2.GroundTruth(a.Address); ok && phishing {
			truePos++
		}
	}
	if truePos*2 < len(alerts) {
		t.Errorf("alert precision %d/%d below 50%% — detector or wiring broken", truePos, len(alerts))
	}
}

// TestMetricsWithWatcher checks the serving layer surfaces monitor counters
// once a watcher is attached.
func TestMetricsWithWatcher(t *testing.T) {
	ds, _ := testCorpus(t)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, ds, WithDetectorSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	sim := startSim(t, 23)
	w, err := NewWatcher(det, WatcherConfig{RPCURL: sim.RPCURL(), ExplorerURL: sim.ExplorerURL()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewScoreHandler(det, WithWatcher(w)))
	t.Cleanup(srv.Close)
	get := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	body := get(srv.URL + "/metrics")
	for _, want := range []string{
		"phishinghook_monitor_queue_capacity",
		"phishinghook_monitor_contracts_scored_total",
		"phishinghook_monitor_score_latency_ms{quantile=\"0.99\"}",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	health := get(srv.URL + "/healthz")
	if !strings.Contains(health, "\"monitor\"") || !strings.Contains(health, "queue_cap") {
		t.Errorf("healthz missing monitor stats: %s", health)
	}
}

// TestMetricsWithBackfill checks the serving layer surfaces the backfill's
// per-shard and per-endpoint fetch-plane series once a backfill is attached.
func TestMetricsWithBackfill(t *testing.T) {
	ds, _ := testCorpus(t)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, ds, WithDetectorSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	sim := startSim(t, 29)
	from, _ := sim.StudyWindow()
	b, err := NewBackfill(det, BackfillConfig{
		RPCURLs:     sim.AddRPCEndpoints(2, 0, 0),
		ExplorerURL: sim.ExplorerURL(),
		From:        from,
		To:          sim.TailBlock(),
		Shards:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewScoreHandler(det, WithBackfill(b)))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(blob)
	for _, want := range []string{
		"phishinghook_monitor_contracts_scored_total",
		"phishinghook_backfill_shard_cursor{shard=\"0\"}",
		"phishinghook_backfill_shard_done{shard=\"1\"} 1",
		"phishinghook_rpc_endpoint_requests_total{endpoint=",
		"phishinghook_rpc_endpoint_limit{endpoint=",
		"phishinghook_rpc_endpoint_health{endpoint=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	hblob, err := io.ReadAll(hresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(hblob), "\"backfill\"") || !strings.Contains(string(hblob), "\"shards\"") {
		t.Errorf("healthz missing backfill stats: %s", hblob)
	}
}

// quotaFixture is the shared set-up of the quota-bound throughput tests: a
// seed-1 simulation with uniquePhish unique phishing contracts (twice as
// many obtained, as many benign; txPerMonth txs a month when positive) and
// a Random Forest trained on it, its score cache warmed over every bytecode
// on chain so the runs a test compares pay for RPC or replica quota, not
// featurization. The tests compare wall-clock runs of several seconds, so
// they skip under the race detector and in -short.
func quotaFixture(t *testing.T, uniquePhish, txPerMonth int) (*Simulation, *Detector) {
	t.Helper()
	if raceEnabled || testing.Short() {
		t.Skip("wall-clock throughput gate: meaningless under -race, seconds-long for -short")
	}
	cfg := DefaultSimulationConfig(1)
	cfg.ObtainedPhishing, cfg.UniquePhishing, cfg.Benign = 2*uniquePhish, uniquePhish, uniquePhish
	if txPerMonth > 0 {
		cfg.TxPerMonth = txPerMonth
	}
	sim, err := StartSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Close)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, sim.Dataset(), WithDetectorSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	raw := sim.RawDataset()
	codes := make([][]byte, raw.Len())
	for i, s := range raw.Samples {
		codes[i] = s.Bytecode
	}
	if _, err := det.ScoreBatch(context.Background(), codes); err != nil {
		t.Fatal(err)
	}
	return sim, det
}

// bestOfRounds runs round, which times two runs back to back and returns
// their throughput ratio, up to three times and passes at the first ratio
// that reaches gate. That is the verdict of gating the best of three
// interleaved rounds: load on a shared runner that spoils one round does
// not fail the gate, and stopping early cannot change the outcome.
func bestOfRounds(t *testing.T, gate float64, round func() float64) {
	t.Helper()
	best := 0.0
	for i := 0; i < 3; i++ {
		ratio := round()
		t.Logf("round %d: %.2fx (gate >= %.1fx)", i, ratio, gate)
		if ratio >= gate {
			return
		}
		best = math.Max(best, ratio)
	}
	t.Fatalf("best of 3 rounds %.2fx, below the %.1fx gate", best, gate)
}

// timeRun returns how many seconds run takes, failing the test on error.
func timeRun(t *testing.T, run func(context.Context) error) float64 {
	t.Helper()
	t0 := time.Now()
	if err := run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return time.Since(t0).Seconds()
}

// watchSeconds times a single-client watcher judging the simulation's whole
// history over one RPC endpoint: the baseline both ingestion gates beat.
func watchSeconds(t *testing.T, sim *Simulation, det *Detector, url string) float64 {
	t.Helper()
	from, _ := sim.StudyWindow()
	w, err := NewWatcher(det, WatcherConfig{RPCURL: url, ExplorerURL: sim.ExplorerURL(),
		PollInterval: time.Millisecond, StartBlock: from - 1, StopAtBlock: sim.TailBlock()})
	if err != nil {
		t.Fatal(err)
	}
	return timeRun(t, w.Run)
}

// TestBackfillOutpacesSingleClientWatcher gates the fetch plane's fan-out:
// over three endpoints each limited to 1,500 eth_getCode items/s (burst
// 192), a 4-shard backfill covers the chain at least 2x as fast as a
// single-client watcher on one of them. The limits make both runs
// quota-bound, so the ratio holds on slow runners where absolute
// contracts/s would not.
func TestBackfillOutpacesSingleClientWatcher(t *testing.T) {
	sim, det := quotaFixture(t, 1200, 0)
	urls := sim.AddRPCEndpoints(3, 1500, 192)
	from, _ := sim.StudyWindow()
	bestOfRounds(t, 2.0, func() float64 {
		single := watchSeconds(t, sim, det, urls[0])
		b, err := NewBackfill(det, BackfillConfig{RPCURLs: urls, ExplorerURL: sim.ExplorerURL(),
			From: from, To: sim.TailBlock(), Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		return single / timeRun(t, b.Run)
	})
}

// BenchmarkWatcherThroughput measures the Watchtower's sustained pipeline
// rate — registry listing, concurrent eth_getCode fetches, SHA-256 dedup and
// histogram-model scoring over real HTTP — in contracts per second. The
// acceptance bar for the subsystem is >= 10k contracts/sec with the queue
// never exceeding its configured cap.
func BenchmarkWatcherThroughput(b *testing.B) {
	sim, err := StartSimulation(DefaultSimulationConfig(9))
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	spec, err := ModelByName("Random Forest")
	if err != nil {
		b.Fatal(err)
	}
	det, err := Train(spec, sim.Dataset(), WithDetectorSeed(9))
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.GoLive(0); err != nil {
		b.Fatal(err)
	}
	start, tail := sim.HeadBlock(), sim.TailBlock()
	sim.AdvanceBlocks(tail - start)
	ctx := context.Background()

	var total uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := NewWatcher(det, WatcherConfig{
			RPCURL:       sim.RPCURL(),
			ExplorerURL:  sim.ExplorerURL(),
			PollInterval: time.Millisecond,
			StartBlock:   start,
			StopAtBlock:  tail,
			QueueSize:    1024,
			Fetchers:     32,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(ctx); err != nil {
			b.Fatal(err)
		}
		s := w.Stats()
		if s.QueueDepth > s.QueueCap {
			b.Fatalf("queue depth %d exceeded cap %d", s.QueueDepth, s.QueueCap)
		}
		if s.Dropped != 0 || s.Errors != 0 {
			b.Fatalf("lossless run expected: dropped=%d errors=%d", s.Dropped, s.Errors)
		}
		total += s.ContractsSeen
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total)/secs, "contracts/sec")
	}
	b.ReportMetric(0, "ns/op") // contracts/sec is the meaningful axis
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	ph "github.com/phishinghook/phishinghook"
	"github.com/phishinghook/phishinghook/internal/chain"
)

// schedule is an open-loop timetable: event i is due at start + i×interval
// whether or not earlier events have completed.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// releases records, per clock tick, the visible head after the tick and the
// tick's due time, so any block maps to the moment it was released.
type releases struct {
	heads []uint64
	due   []time.Time
	lag   []time.Duration
}

func (r *releases) add(head uint64, due time.Time, lag time.Duration) {
	r.heads = append(r.heads, head)
	r.due = append(r.due, due)
	r.lag = append(r.lag, lag)
}

// pos places a due time within the clock's run, as a fraction in [0, 1).
func (r *releases) pos(due time.Time) float64 {
	n := len(r.due)
	if n < 2 {
		return 0
	}
	span := r.due[n-1].Sub(r.due[0]) * time.Duration(n) / time.Duration(n-1)
	return float64(due.Sub(r.due[0])) / float64(span)
}

// at returns the due time of the first tick whose head reached block.
func (r *releases) at(block uint64) (time.Time, bool) {
	k := sort.Search(len(r.heads), func(i int) bool { return r.heads[i] >= block })
	if k == len(r.heads) {
		return time.Time{}, false
	}
	return r.due[k], true
}

// alertLog is a sink recording every alert with its emit time.
type alertLog struct {
	mu     sync.Mutex
	alerts []timedAlert
}

type timedAlert struct {
	ph.Alert
	at time.Time
}

func (l *alertLog) sink() ph.AlertSink {
	return ph.NewFuncSink(func(a ph.Alert) error {
		now := time.Now()
		l.mu.Lock()
		l.alerts = append(l.alerts, timedAlert{Alert: a, at: now})
		l.mu.Unlock()
		return nil
	})
}

func (l *alertLog) snapshot() []timedAlert {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]timedAlert(nil), l.alerts...)
}

// liveDrain bounds how long the watchers may take after the last tick to
// judge everything released; beyond it the run fails.
const liveDrain = 60 * time.Second

// liveSystem is the system under test in live-replay.
type liveSystem struct {
	code, payload    trained
	codeDet, payDet  *ph.Detector
	codeSc           ph.CodeScorer
	txSc             ph.TxScorer
	cw               *ph.Watcher
	txw              *ph.TxWatcher
	contracts, txLog *alertLog
}

// liveParams are the watcher settings shared by the run and the restarts.
type liveParams struct {
	rpcURL, explorerURL  string
	start, end           uint64
	contractCkpt, txCkpt string
}

func (s *liveSystem) watchers(cfg config, p liveParams, tr *tracer) error {
	var err error
	s.cw, err = ph.NewWatcher(s.codeSc, ph.WatcherConfig{
		RPCURL:         p.rpcURL,
		ExplorerURL:    p.explorerURL,
		PollInterval:   cfg.PollInterval,
		StartBlock:     p.start,
		StopAtBlock:    p.end,
		CheckpointPath: p.contractCkpt,
		Sinks:          []ph.AlertSink{tr.sink(s.contracts.sink())},
	})
	if err != nil {
		return err
	}
	// No StopAtBlock: the harness cancels the tx watcher once it has judged
	// every released tx. Run returns after an empty poll once the head passed
	// StopAtBlock, which can leave the final tick's txs unjudged.
	s.txw, err = ph.NewTxWatcher(s.txSc, ph.TxWatcherConfig{
		RPCURL:         p.rpcURL,
		PollInterval:   cfg.PollInterval,
		Threshold:      cfg.TxThreshold,
		StartBlock:     p.start,
		CheckpointPath: p.txCkpt,
		Sinks:          []ph.AlertSink{tr.sink(s.txLog.sink())},
	})
	return err
}

// setup trains and loads both detectors and builds both watchers.
func (s *liveSystem) setup(cfg config, w *world, p liveParams, tr *tracer) error {
	var err error
	if s.code, err = train(modelSpec("Random Forest"), w.codeDS, cfg.Seed, nil, true); err != nil {
		return err
	}
	if s.payload, err = train(modelSpec("Calldata Forest"), w.txDS, cfg.Seed, nil, false); err != nil {
		return err
	}
	if s.codeDet, err = s.code.load(ph.WithEvasionTelemetry()); err != nil {
		return err
	}
	if s.payDet, err = s.payload.load(); err != nil {
		return err
	}
	// One detector serves both watchers, as in a deployment.
	s.codeSc = tr.scorer("detector.score", s.codeDet)
	fused, err := ph.NewFusedTxScorer(tr.scorer("detector.calldata_score", s.payDet), s.codeSc)
	if err != nil {
		return err
	}
	s.txSc = tr.txScorer(fused)
	s.contracts, s.txLog = &alertLog{}, &alertLog{}
	return s.watchers(cfg, p, tr)
}

// runLive replays the chain from GoLive at LiveMonth: the harness clock
// releases BlocksPerTick blocks every Tick for the window while a contract
// Watcher and a TxWatcher follow the head, and every alert is timed from the
// due time of the tick that released its block.
func runLive(cfg config, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	start := chain.MonthStartBlock(cfg.LiveMonth) - 1
	if err := w.chain.GoLive(start); err != nil {
		return nil, err
	}
	end := start + uint64(cfg.Window/cfg.Tick)*cfg.BlocksPerTick
	if tail := w.chain.TailBlock(); end > tail {
		end = tail
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "live-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := liveParams{
		rpcURL: w.serveRPC(tr), explorerURL: w.serveExplorer(tr), start: start, end: end,
		contractCkpt: filepath.Join(dir, "contract.cursor"), txCkpt: filepath.Join(dir, "tx.cursor"),
	}
	contracts, txs := w.contractsIn(start, end), w.txsIn(start, end)

	heap := liveHeapAfterGC()
	sys := &liveSystem{}
	if m.e2e["setup_s"], err = setupSeconds(cfg.SetupRepeats, func() error { return sys.setup(cfg, w, p, tr) }); err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Window+liveDrain)
	defer cancel()
	txCtx, cancelTx := context.WithCancel(ctx)
	defer cancelTx()
	var wg sync.WaitGroup
	var cwErr, txErr error
	wg.Add(2)
	go func() { defer wg.Done(); cwErr = sys.cw.Run(ctx) }()
	go func() { defer wg.Done(); txErr = sys.txw.Run(txCtx) }()
	for (sys.cw.Stats().Polls == 0 || sys.txw.Stats().Polls == 0) && ctx.Err() == nil {
		time.Sleep(100 * time.Microsecond)
	}

	var samples *liveSampler
	if tr != nil {
		samples = sampleLive(w, sys, start)
	}
	rel := &releases{}
	sched := schedule{start: time.Now().Add(cfg.Tick), interval: cfg.Tick}
	for k, head := 0, start; head < end; k++ {
		due := sched.due(k)
		sleepUntil(due)
		n := cfg.BlocksPerTick
		if end-head < n {
			n = end - head
		}
		head = w.chain.AdvanceHead(n)
		rel.add(head, due, time.Since(due))
	}
	var cDone, tDone time.Time
	for (cDone.IsZero() || tDone.IsZero()) && ctx.Err() == nil {
		if cDone.IsZero() && sys.cw.Cursor() >= end {
			cDone = time.Now()
		}
		if tDone.IsZero() && sys.txw.SeenUnique() >= len(txs) {
			tDone = time.Now()
			cancelTx()
		}
		time.Sleep(200 * time.Microsecond)
	}
	cancelTx()
	wg.Wait()
	m.e2e["mem_retained_mb"] = retainedMB(heap)
	if samples != nil {
		samples.stop(m)
	}
	if cDone.IsZero() || tDone.IsZero() {
		m.fail(1, "watchers did not judge the released chain within %v of the window", liveDrain)
	}
	if cwErr != nil && ctx.Err() == nil {
		return nil, fmt.Errorf("contract watcher: %w", cwErr)
	}
	if txErr != nil && txCtx.Err() == nil {
		return nil, fmt.Errorf("tx watcher: %w", txErr)
	}
	done := cDone
	if tDone.After(done) {
		done = tDone
	}
	m.e2e["throughput_per_s"] = float64(len(contracts)+len(txs)) / done.Sub(sched.start).Seconds()
	m.generatorLag(rel.lag)

	// The reference shares no cache with the system under test.
	refCode, err := sys.code.load(ph.WithEvasionTelemetry())
	if err != nil {
		return nil, err
	}
	refPay, err := sys.payload.load()
	if err != nil {
		return nil, err
	}
	refFused, err := ph.NewFusedTxScorer(refPay, refCode)
	if err != nil {
		return nil, err
	}
	check := context.Background()
	calerts := sys.contracts.snapshot()
	expect, err := expectContracts(check, contracts, refCode)
	if err != nil {
		return nil, err
	}
	ctta := m.checkContracts(expect, calerts, rel)
	m.note("contracts: %d released, %d alerts expected, %d raised", len(contracts), len(expect.want), len(calerts))
	ttta, err := m.checkTxs(check, w, txs, end, sys.txLog.snapshot(), refFused, cfg.TxThreshold, rel)
	if err != nil {
		return nil, err
	}
	m.tta("contract", ctta)
	m.tta("tx", ttta)
	m.latency("time-to-alert (contract and tx alerts)", append(append([]point(nil), ctta...), ttta...))
	if tr == nil {
		return m, nil
	}

	resume := make([]float64, 10)
	restart := &liveSystem{codeSc: sys.codeSc, txSc: sys.txSc, contracts: &alertLog{}, txLog: &alertLog{}}
	for i := range resume {
		t0 := time.Now()
		if err := restart.watchers(cfg, p, nil); err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		resume[i] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	m.layer["monitor.resume_ms"] = median(resume)
	m.layer["monitor.checkpoint_bytes"] = fileSize(p.contractCkpt)
	m.layer["txstream.checkpoint_bytes"] = fileSize(p.txCkpt)

	spans := tr.byName()
	m.ingestLayers(spans)
	feed := summarize(spans["ethrpc.eth_getFilterChanges"])
	m.layer["ethrpc.feed_polls"] = float64(feed.n)
	m.layer["ethrpc.feed_items_per_poll"] = ratio(float64(feed.items), float64(feed.n))
	m.layer["ethrpc.feed_p50_us"] = feed.p50us
	head := arrivalGapsMS(spans["ethrpc.eth_blockNumber"])
	m.layer["monitor.head_poll_gap_p99_ms"] = percentile(head, 99)
	m.layer["monitor.head_poll_gap_max_ms"] = maxOf(head)
	fg := arrivalGapsMS(spans["ethrpc.eth_getFilterChanges"])
	m.layer["txstream.feed_poll_gap_p99_ms"] = percentile(fg, 99)
	m.layer["txstream.feed_poll_gap_max_ms"] = maxOf(fg)
	st := summarize(spans["txstream.score_tx"])
	m.layer["txstream.score_tx_p50_us"] = st.p50us
	m.layer["txstream.score_tx_p99_us"] = st.p99us
	m.layer["txstream.score_tx_busy_ms"] = st.busyMS
	m.layer["detector.calldata_score_p50_us"] = summarize(spans["detector.calldata_score"]).p50us
	m.endpoints(sys.cw.Endpoints())
	m.endpoints(sys.txw.Endpoints())
	cs := sys.cw.Stats()
	m.layer["monitor.dedup_hit_ratio"] = ratio(float64(cs.DedupHits), float64(cs.ContractsSeen))
	ts := sys.txw.Stats()
	m.layer["txstream.code_cache_hit_ratio"] = ratio(float64(ts.CodeCacheHits), float64(ts.CodeCacheHits+ts.CodeCacheMisses))
	m.layer["lru.hit_ratio"] = cacheHitRatio(sys.codeDet, sys.payDet)
	m.liveClosure(tr, spans, w, expect, calerts, sys.txLog.snapshot(), rel)

	uniq, seen := [][]byte{}, map[string]bool{}
	for _, ct := range contracts {
		if !seen[string(ct.Code)] {
			seen[string(ct.Code)] = true
			uniq = append(uniq, ct.Code)
		}
	}
	if err := m.replayStages(check, sys.code, w.codeDS, firstN(uniq, cfg.Replay), refCode); err != nil {
		return nil, err
	}
	var calldata [][]byte
	for _, tx := range txs {
		if len(tx.Calldata) > 0 {
			calldata = append(calldata, tx.Calldata)
		}
	}
	if err := m.replayCalldata(sys.payload, w.txDS, firstN(calldata, cfg.Replay)); err != nil {
		return nil, err
	}
	return m, nil
}

// tta reports one alert stream's time-to-alert percentiles, computed like
// the end-to-end latency.
func (m *measurement) tta(kind string, pts []point) {
	p50, p90, p, tail := latencyStats(pts)
	pre := "bench." + kind + "_tta_"
	m.layer[pre+"p50_ms"], m.layer[pre+"p90_ms"], m.layer[pre+"tail_ms"] = p50, p90, tail
	m.note("%s time-to-alert: p50 %.3f ms, p90 %.3f ms, p%g %.3f ms over %d alerts", kind, p50, p90, p, tail, len(pts))
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// liveSampler polls the watchers' Stats every 10ms during a traced run.
type liveSampler struct {
	quit chan struct{}
	done chan struct{}

	queueMax, lagMax, backlogMax float64
}

func sampleLive(w *world, sys *liveSystem, start uint64) *liveSampler {
	s := &liveSampler{quit: make(chan struct{}), done: make(chan struct{})}
	blocks := make([]uint64, 0, len(w.txs))
	for _, tx := range w.txsIn(start, ^uint64(0)) {
		blocks = append(blocks, tx.Block)
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			// Counters first, head second: the head only grows, so the
			// differences cannot go negative.
			cs, seen := sys.cw.Stats(), sys.txw.Stats().TxsSeen
			head := w.chain.HeadBlock()
			released := sort.Search(len(blocks), func(i int) bool { return blocks[i] > head })
			s.queueMax = maxOf([]float64{s.queueMax, float64(cs.QueueDepth)})
			s.lagMax = maxOf([]float64{s.lagMax, float64(head - cs.Cursor)})
			s.backlogMax = maxOf([]float64{s.backlogMax, float64(released) - float64(seen)})
		}
	}()
	return s
}

func (s *liveSampler) stop(m *measurement) {
	close(s.quit)
	<-s.done
	m.layer["monitor.queue_depth_max"] = s.queueMax
	m.layer["monitor.cursor_lag_blocks_max"] = s.lagMax
	m.layer["txstream.backlog_max"] = s.backlogMax
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ph "github.com/phishinghook/phishinghook"
	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/synth"
)

// runBackfill sweeps the full 13-month window through NewBackfill again and
// again until the window closes: two unlimited endpoints, four shards,
// checkpointing on, and a freshly loaded hardened detector per sweep so
// every sweep starts with a cold cache.
func runBackfill(cfg config, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	urls := []string{w.serveRPC(tr), w.serveRPC(tr)}
	explorerURL := w.serveExplorer(tr)
	from := chain.MonthStartBlock(0)
	to := chain.MonthStartBlock(synth.NumMonths-1) + chain.BlocksPerMonth - 1
	contracts := w.contractsIn(from-1, to)
	dir, err := os.MkdirTemp(cfg.WorkDir, "backfill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var det trained
	newBackfill := func(d *ph.Detector, ckpt string, log *alertLog) (*ph.Backfill, error) {
		return ph.NewBackfill(tr.scorer("detector.score", d), ph.BackfillConfig{
			RPCURLs:        urls,
			ExplorerURL:    explorerURL,
			From:           from,
			To:             to,
			Shards:         4,
			CheckpointPath: ckpt,
			Sinks:          []ph.AlertSink{tr.sink(log.sink())},
		})
	}
	heap := liveHeapAfterGC()
	m.e2e["setup_s"], err = setupSeconds(cfg.SetupRepeats, func() error {
		var err error
		if det, err = train(modelSpec("Random Forest"), w.codeDS, cfg.Seed, nil, true); err != nil {
			return err
		}
		d, err := det.load(ph.WithEvasionTelemetry())
		if err != nil {
			return err
		}
		_, err = newBackfill(d, filepath.Join(dir, "setup.cursor"), &alertLog{})
		return err
	})
	if err != nil {
		return nil, err
	}

	// The reference is a separately loaded detector, scored once; each
	// sweep's alerts are checked against it as soon as the sweep ends.
	ctx := context.Background()
	ref, err := det.load(ph.WithEvasionTelemetry())
	if err != nil {
		return nil, err
	}
	expect, err := expectContracts(ctx, contracts, ref)
	if err != nil {
		return nil, err
	}
	var walls []time.Duration
	var rates []float64
	var pts []point
	var hits, misses uint64
	var endpoints []ph.EndpointStats
	var dedupHits, seen uint64
	deadline := time.Now().Add(cfg.Window)
	for sweep := 0; sweep == 0 || time.Now().Before(deadline); sweep++ {
		d, err := det.load(ph.WithEvasionTelemetry())
		if err != nil {
			return nil, err
		}
		ckpt := filepath.Join(dir, fmt.Sprintf("sweep-%d.cursor", sweep))
		log := &alertLog{}
		t0 := time.Now()
		bf, err := newBackfill(d, ckpt, log)
		if err == nil {
			err = bf.Run(ctx)
		}
		wall := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("sweep %d: %w", sweep, err)
		}
		walls = append(walls, wall)
		rates = append(rates, float64(len(contracts))/wall.Seconds())
		// A backfill has no release clock: an alert's latency runs from the
		// start of its sweep, and pos holds the sweep until the count is known.
		alerts := log.snapshot()
		m.checkContracts(expect, alerts, &releases{})
		for _, a := range alerts {
			pts = append(pts, point{pos: float64(sweep), ms: msSince(t0, a.at)})
		}
		h, mi := d.CacheStats()
		hits, misses = hits+h, misses+mi
		st := bf.Stats()
		dedupHits += st.DedupHits
		seen += st.ContractsSeen
		endpoints = append(endpoints, st.Endpoints...)
		if err := os.Remove(ckpt); err != nil {
			return nil, err
		}
		if sweep == 0 {
			// What one sweep leaves held. Every later sweep adds its idle RPC
			// connections until they time out, so the total would grow
			// with however many sweeps fit in the window.
			m.e2e["mem_retained_mb"] = retainedMB(heap)
		}
	}
	// Each sweep is a slice of the run.
	m.e2e["throughput_per_s"] = bestQuarter(rates, false)
	for i := range pts {
		pts[i].pos /= float64(len(walls))
	}
	m.latency("alert latency from sweep start", pts)

	m.note("backfill: %d sweeps of %d contracts, %d alerts expected per sweep", len(walls), len(contracts), len(expect.want))
	if tr == nil {
		return m, nil
	}
	spans := tr.byName()
	m.ingestLayers(spans)
	m.endpoints(endpoints)
	m.layer["monitor.dedup_hit_ratio"] = ratio(float64(dedupHits), float64(seen))
	m.layer["lru.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	var busy, wall time.Duration
	for _, name := range []string{"explorer.list", "ethrpc.eth_getCode", "detector.score", "monitor.sink_emit"} {
		for _, s := range spans[name] {
			busy += s.dur()
		}
	}
	for _, d := range walls {
		wall += d
	}
	// Stages overlap across shards and workers, so the closure here is the
	// share of the sweeps' CPU time (sweep time × cores) no span covers.
	m.layer["bench.unaccounted_share"] = clamp01(1 - ratio(float64(busy), float64(wall)*float64(runtime.GOMAXPROCS(0))))
	return m, m.replayStages(ctx, det, w.codeDS, firstN(w.uniques, cfg.Replay), ref)
}

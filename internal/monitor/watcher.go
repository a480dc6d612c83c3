// Package monitor implements the chain-ingestion workloads: the Watchtower
// (a streaming watcher that follows the chain head and scores every new
// contract deployment the moment it lands) and the Backfill engine (sharded
// scanning of an arbitrary historical block range). Both are thin consumers
// of one shared staged Pipeline — fetch over an adaptive RPC plane, SHA-256
// dedup, bounded score queue, alert sinks — layered on the repo's existing
// primitives: the registry/JSON-RPC clients discover and fetch deployments,
// a trained detector (any Scorer) judges them, and alert sinks carry
// verdicts out.
//
// Pipeline shape, one scan:
//
//	registry ListContracts(range) ──> chunk (pooled address batches)
//	    └─> fetch pool (batched eth_getCode over 1..N endpoints)
//	        └─> SHA-256 dedup ─> bounded queue
//	            └─> score pool (Scorer) ─> threshold ─> alert sinks
//
// The watcher's cursor advances only after every deployment in the window
// has been fetched and scored, and is checkpointed (with the dedup set) at
// most every CheckpointEvery plus once on shutdown, so a stopped watcher
// restarts from its checkpoint without re-scoring anything: block scans are
// at-least-once, scores are exactly-once per unique bytecode up to
// checkpoint durability (a hard kill between checkpoints replays at most
// CheckpointEvery of progress).
//
// Backpressure is explicit: the fetch pool blocks when the score queue is
// full (default), or sheds deployments with drop accounting when
// DropWhenFull is set. Counters (blocks, contracts, dedup hits, alerts,
// drops, queue depth, score-latency quantiles) are exposed via Stats for the
// serving layer's /metrics endpoint.
package monitor

import (
	"context"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/explorer"
)

// Verdict is the monitor-facing slice of a detector decision.
type Verdict struct {
	// Phishing reports the predicted class.
	Phishing bool
	// Confidence is the probability mass behind the prediction.
	Confidence float64
	// Model names the scoring model.
	Model string
	// Version is the lifecycle-store model version that scored (empty when
	// the scorer is not versioned). It is stamped onto alerts and the
	// checkpoint so every verdict stays attributable across hot swaps and
	// restarts.
	Version string
	// DeadCodeRatio, ScoreDivergence and EvasionSuspect carry the
	// detector's evasion telemetry when it runs hardened (all zero
	// otherwise); the suspect flag rides onto alerts.
	DeadCodeRatio   float64
	ScoreDivergence float64
	EvasionSuspect  bool
}

// Scorer judges one deployed bytecode. Implementations must be safe for
// concurrent use — the score pool calls from many goroutines. The root
// package adapts *phishinghook.Detector onto this.
type Scorer interface {
	ScoreCode(ctx context.Context, code []byte) (Verdict, error)
}

// Config tunes a Watcher. An RPC endpoint (RPCURL or RPCURLs) and
// ExplorerURL are required.
type Config struct {
	// RPCURL is the JSON-RPC endpoint polled for eth_blockNumber and
	// eth_getCode.
	RPCURL string
	// RPCURLs optionally fans fetches over several endpoints through the
	// adaptive MultiClient plane (AIMD concurrency per endpoint,
	// health-scored selection). When set it takes precedence over RPCURL; a
	// single entry behaves exactly like RPCURL.
	RPCURLs []string
	// Hedge re-issues straggling RPC requests on a second endpoint after
	// this delay (multi-endpoint only; 0 disables).
	Hedge time.Duration
	// ExplorerURL is the registry service listing deployments per block.
	ExplorerURL string
	// PollInterval is the longest wait for the next head poll when no
	// newHeads notification arrives first (default 100ms).
	PollInterval time.Duration
	// QueueSize bounds the fetch→score queue (default 1024). The queue can
	// never exceed this cap; it is the pipeline's memory bound.
	QueueSize int
	// ScoreWorkers sizes the score pool (default GOMAXPROCS).
	ScoreWorkers int
	// Fetchers sizes the bytecode-fetch pool (default 16) — eth_getCode
	// round trips dominate wall time, so fetching overlaps scoring.
	Fetchers int
	// FetchBatch is how many eth_getCode calls ride one JSON-RPC 2.0 batch
	// request (default 64; 1 falls back to per-address round trips).
	FetchBatch int
	// Threshold is the minimum P(phishing) that fires an alert
	// (default 0.5, i.e. every phishing verdict).
	Threshold float64
	// CheckpointPath persists the cursor + dedup set; a restarted watcher
	// resumes from it. Empty disables checkpointing.
	CheckpointPath string
	// CheckpointEvery rate-limits checkpoint writes (default 1s): the
	// cursor advances in memory per window, but the O(dedup set) snapshot
	// and fsync run at most this often, plus once when Run returns. A hard
	// kill can therefore lose up to this much scored-window progress — the
	// rescan stays at-least-once; only clone dedup across the lost stretch
	// is forgotten.
	CheckpointEvery time.Duration
	// WindowBlocks caps one scan window (default 100,000 blocks). A watcher
	// that wakes up far behind the head — cold start, long outage — drains
	// the backlog window by window, committing the cursor after each, so a
	// single fetch fault never forces a rescan of the whole backlog and a
	// kill mid-drain never loses more than one window of progress.
	WindowBlocks uint64
	// StartBlock seeds the cursor when no checkpoint exists: scanning
	// begins at StartBlock+1.
	StartBlock uint64
	// StopAtBlock makes Run return nil once the cursor reaches it
	// (0 = run until the context is cancelled).
	StopAtBlock uint64
	// DropWhenFull sheds deployments (with drop accounting) instead of
	// blocking the fetch pool when the score queue is full.
	DropWhenFull bool
	// Sinks receive alerts. Sink errors are counted, never fatal.
	Sinks []Sink
	// BreakerStreak/BreakerCooldown tune the plane's per-endpoint circuit
	// breaker (0 keeps the defaults of 8 failures / 2s; negative streak
	// disables). Chaos soaks shrink the cooldown toward PollInterval so
	// post-blackout recovery is bounded by polls, not by the re-probe timer.
	BreakerStreak   int
	BreakerCooldown time.Duration
	// RetryBackoff is the base delay between the plane's per-call retry
	// attempts (0 keeps the 50ms default). Chaos soaks shrink it below
	// PollInterval so one retrying call cannot outlast a polling window.
	RetryBackoff time.Duration
}

func (c *Config) fillDefaults() error {
	if (c.RPCURL == "" && len(c.RPCURLs) == 0) || c.ExplorerURL == "" {
		return fmt.Errorf("monitor: Config needs an RPC endpoint and ExplorerURL")
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 100 * time.Millisecond
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = time.Second
	}
	if c.WindowBlocks == 0 {
		c.WindowBlocks = 100_000
	}
	return nil
}

// endpoints resolves the configured fetch plane.
func (c *Config) endpoints() []string {
	if len(c.RPCURLs) > 0 {
		return c.RPCURLs
	}
	return []string{c.RPCURL}
}

// pipelineConfig carves the pipeline's slice out of the watcher config.
func (c *Config) pipelineConfig() PipelineConfig {
	return PipelineConfig{
		QueueSize:    c.QueueSize,
		ScoreWorkers: c.ScoreWorkers,
		Fetchers:     c.Fetchers,
		FetchBatch:   c.FetchBatch,
		Threshold:    c.Threshold,
		DropWhenFull: c.DropWhenFull,
		Sinks:        c.Sinks,
	}
}

// Watcher follows the chain head and scores new deployments through the
// shared pipeline. Construct with New, drive with Run (once), observe with
// Stats.
type Watcher struct {
	cfg  Config
	pipe *Pipeline
	rpc  *ethrpc.MultiClient
	reg  *explorer.Crawler

	// lastCkpt is touched only by the Run goroutine.
	lastCkpt time.Time
	// wakes counts polls a notification started.
	wakes atomic.Uint64

	mu     sync.Mutex
	cursor uint64
}

// New builds a watcher over the given scorer, resuming from
// cfg.CheckpointPath when a checkpoint exists (the checkpoint's cursor and
// dedup set win over cfg.StartBlock).
func New(scorer Scorer, cfg Config) (*Watcher, error) {
	if scorer == nil {
		return nil, fmt.Errorf("monitor: nil scorer")
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	rpc, err := ethrpc.NewMultiClient(cfg.endpoints(),
		ethrpc.WithPlaneHedge(cfg.Hedge),
		ethrpc.WithPlaneBreaker(cfg.BreakerStreak, cfg.BreakerCooldown),
		ethrpc.WithPlaneRetries(0, cfg.RetryBackoff))
	if err != nil {
		return nil, err
	}
	pipe, err := NewPipeline(scorer, rpc, cfg.pipelineConfig())
	if err != nil {
		return nil, err
	}
	w := &Watcher{
		cfg:    cfg,
		pipe:   pipe,
		rpc:    rpc,
		reg:    explorer.NewCrawler(cfg.ExplorerURL),
		cursor: cfg.StartBlock,
	}
	if cfg.CheckpointPath != "" {
		cp, ok, err := loadCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if ok {
			if cp.Modality != "" {
				return nil, fmt.Errorf("monitor: checkpoint %s has modality %q; the contract watcher cannot resume it", cfg.CheckpointPath, cp.Modality)
			}
			w.cursor = cp.Cursor
			hashes, err := cp.decodeSeen()
			if err != nil {
				return nil, fmt.Errorf("monitor: checkpoint %s: %w", cfg.CheckpointPath, err)
			}
			pipe.restoreSeen(hashes, cp.ModelVersion)
		}
	}
	return w, nil
}

// Cursor returns the last fully scored block.
func (w *Watcher) Cursor() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cursor
}

// SeenUnique returns the size of the bytecode dedup set.
func (w *Watcher) SeenUnique() int { return w.pipe.SeenUnique() }

// ModelVersion returns the lifecycle version of the most recent successful
// score ("" before the first score of an unversioned scorer). Restored from
// the checkpoint, so a restarted watcher knows which model version had
// judged everything up to its cursor.
func (w *Watcher) ModelVersion() string { return w.pipe.ModelVersion() }

// Endpoints snapshots the fetch plane's per-endpoint scheduler state for the
// serving layer's /metrics.
func (w *Watcher) Endpoints() []ethrpc.EndpointStats { return w.rpc.Stats() }

// Stats snapshots the watcher's counters.
func (w *Watcher) Stats() Stats {
	s := w.pipe.Stats()
	s.Cursor = w.Cursor()
	s.Wakes = w.wakes.Load()
	return s
}

// Run follows the head until the context is cancelled or the cursor reaches
// cfg.StopAtBlock. It owns the pipeline's pools; call it at most once per
// Watcher. Caught up, it polls again after PollInterval or as soon as a
// newHeads notification arrives, whichever comes first; after a failed
// poll or scan it waits the full interval.
func (w *Watcher) Run(ctx context.Context) error {
	w.pipe.Start(ctx)
	defer func() {
		w.pipe.Stop()
		// Final checkpoint after the score pool drains, so a clean stop
		// (StopAtBlock or cancellation) never loses committed progress.
		if w.cfg.CheckpointPath != "" {
			w.saveCheckpointNow()
		}
	}()
	subCtx, unsubscribe := context.WithCancel(ctx)
	defer unsubscribe()
	wake := w.rpc.Subscribe(subCtx, ethrpc.NewHeads)

	for {
		w.pipe.ctr.polls.Add(1)
		head, err := w.rpc.BlockNumber(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.pipe.ctr.errors.Add(1)
		}
		// Drain the backlog window by window without sleeping between
		// windows, committing the cursor after each — a cold start or
		// post-outage watcher catches up at fetch-plane speed, and a fault
		// only ever rescans one window.
		for err == nil && head > w.Cursor() {
			from := w.Cursor() + 1
			to := head
			if span := w.cfg.WindowBlocks; to-from+1 > span {
				to = from + span - 1
			}
			if err = w.scanWindow(ctx, from, to); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				// The underlying fault was already counted at its source
				// (registry, fetch chunk or score worker).
				break // leave the cursor; the window rescans next poll
			}
			w.pipe.ctr.blocksSeen.Add(to - from + 1)
			w.advanceCursor(to)
			if stop := w.cfg.StopAtBlock; stop > 0 && w.Cursor() >= stop {
				return nil
			}
		}
		if stop := w.cfg.StopAtBlock; stop > 0 && w.Cursor() >= stop {
			return nil
		}
		idle := wake
		if err != nil {
			idle = nil // a fault backs off the full interval, as without push
		}
		if !w.sleep(ctx, idle) {
			return ctx.Err()
		}
	}
}

// sleep waits one poll interval, or less when wake fires first (a nil wake
// never does), reporting false when the context died. The timer is stopped
// on return: a wake-cut wait must not leave it pending for the rest of
// PollInterval.
func (w *Watcher) sleep(ctx context.Context, wake <-chan struct{}) bool {
	t := time.NewTimer(w.cfg.PollInterval)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-wake:
		w.wakes.Add(1)
		return true
	case <-t.C:
		return true
	}
}

// scanWindow lists [from, to]'s deployments from the registry and runs them
// through the shared pipeline. A registry, fetch or score failure aborts the
// window so the cursor stays put and the window rescans next poll —
// re-observed deployments collapse into dedup hits, so scans are
// at-least-once while scores stay exactly-once.
func (w *Watcher) scanWindow(ctx context.Context, from, to uint64) error {
	addrs, err := w.reg.ListContracts(ctx, from, to)
	if err != nil {
		w.pipe.ctr.errors.Add(1)
		return err
	}
	return w.pipe.Scan(ctx, addrs, to)
}

// advanceCursor commits a fully scored window, persisting at most every
// CheckpointEvery so the O(dedup set) snapshot and fsync stay off the
// per-window hot path.
func (w *Watcher) advanceCursor(head uint64) {
	w.mu.Lock()
	w.cursor = head
	w.mu.Unlock()
	if w.cfg.CheckpointPath == "" || time.Since(w.lastCkpt) < w.cfg.CheckpointEvery {
		return
	}
	w.saveCheckpointNow()
}

// saveCheckpointNow snapshots cursor + dedup set and writes the checkpoint.
func (w *Watcher) saveCheckpointNow() {
	hashes, version := w.pipe.snapshotSeen()
	cp := checkpoint{Cursor: w.Cursor(), ModelVersion: version, Seen: make([]string, len(hashes))}
	for i, h := range hashes {
		cp.Seen[i] = hex.EncodeToString(h[:])
	}
	if err := saveCheckpoint(w.cfg.CheckpointPath, cp); err != nil {
		w.pipe.ctr.errors.Add(1)
	}
	w.lastCkpt = time.Now()
}

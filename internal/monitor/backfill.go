package monitor

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/explorer"
)

// BackfillConfig tunes a Backfill run. RPCURLs (at least one), ExplorerURL
// and a block range are required.
type BackfillConfig struct {
	// RPCURLs are the JSON-RPC endpoints the fetch plane fans out over.
	// Several endpoints multiply the fetch ceiling of rate-limited
	// providers; one endpoint gets the same window, breaker and retries.
	RPCURLs []string
	// Hedge re-issues straggling RPC requests on a second endpoint after
	// this delay (0 disables).
	Hedge time.Duration
	// ExplorerURL is the registry service listing deployments per block.
	ExplorerURL string
	// From and To bound the scanned block range, inclusive.
	From, To uint64
	// Shards is how many parallel range-workers partition [From, To]
	// (default 4, clamped to the range size). Each shard owns a contiguous
	// sub-range and a resumable cursor; all shards feed one shared
	// pipeline, so dedup and scoring stay global.
	Shards int
	// WindowBlocks is each shard's registry-listing stride (default
	// 100,000 blocks): smaller windows checkpoint finer, larger windows
	// amortize registry pagination.
	WindowBlocks uint64
	// QueueSize, ScoreWorkers, Fetchers, FetchBatch, Threshold,
	// DropWhenFull and Sinks tune the shared pipeline exactly as on a
	// Watcher.
	QueueSize    int
	ScoreWorkers int
	Fetchers     int
	FetchBatch   int
	Threshold    float64
	DropWhenFull bool
	Sinks        []Sink
	// CheckpointPath persists per-shard cursors + the dedup set (the
	// watcher checkpoint format, extended with a shards field). A killed
	// backfill restarted with the same range resumes every shard where it
	// left off. Empty disables checkpointing.
	CheckpointPath string
	// CheckpointEvery rate-limits checkpoint writes (default 1s).
	CheckpointEvery time.Duration
	// BreakerStreak/BreakerCooldown tune the plane's per-endpoint circuit
	// breaker (0 keeps the defaults of 8 failures / 2s; negative streak
	// disables).
	BreakerStreak   int
	BreakerCooldown time.Duration
	// RetryBackoff is the base delay between the plane's per-call retry
	// attempts (0 keeps the 50ms default).
	RetryBackoff time.Duration
}

func (c *BackfillConfig) fillDefaults() error {
	if len(c.RPCURLs) == 0 || c.ExplorerURL == "" {
		return fmt.Errorf("monitor: BackfillConfig needs RPCURLs and ExplorerURL")
	}
	if c.From == 0 {
		// Shard cursors sit at from-1; block 0 is genesis (no deployments),
		// so starting at 1 keeps cursor arithmetic off the uint64 edge. The
		// bump happens before the range check: [0, 0] must be rejected as
		// empty, not silently accepted as a zero-shard no-op.
		c.From = 1
	}
	if c.From > c.To {
		return fmt.Errorf("monitor: backfill range [%d, %d] is empty or inverted", c.From, c.To)
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if span := c.To - c.From + 1; uint64(c.Shards) > span {
		c.Shards = int(span)
	}
	if c.WindowBlocks == 0 {
		c.WindowBlocks = 100_000
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = time.Second
	}
	return nil
}

// shard is one range-worker's contiguous sub-range; cursor is the last
// fully scored block ((cursor, To] remains).
type shard struct {
	from, to uint64
	cursor   uint64
}

// ShardStats is one shard's progress snapshot.
type ShardStats struct {
	From   uint64 `json:"from"`
	To     uint64 `json:"to"`
	Cursor uint64 `json:"cursor"`
	Done   bool   `json:"done"`
}

// BackfillStats extends the pipeline counters with per-shard progress and
// per-endpoint fetch-plane state.
type BackfillStats struct {
	Stats
	Shards    []ShardStats           `json:"shards"`
	Endpoints []ethrpc.EndpointStats `json:"endpoints"`
}

// Backfill scans an arbitrary historical block range through the shared
// pipeline: the range is partitioned into contiguous shards scanned by
// parallel range-workers, every worker feeding the same fetch plane, dedup
// set and score pool. Progress is checkpointed per shard, so a killed
// backfill restarted with the same range scores every contract in the range
// exactly once (per unique bytecode, up to checkpoint durability — the same
// contract as the live watcher).
//
// Construct with NewBackfill, drive with Run (once), observe with Stats.
type Backfill struct {
	cfg  BackfillConfig
	pipe *Pipeline
	rpc  *ethrpc.MultiClient
	reg  *explorer.Crawler

	mu     sync.Mutex
	shards []shard
}

// NewBackfill builds a backfill over the given scorer, resuming shard
// cursors and the dedup set from cfg.CheckpointPath when a checkpoint for
// the same range exists.
func NewBackfill(scorer Scorer, cfg BackfillConfig) (*Backfill, error) {
	if scorer == nil {
		return nil, fmt.Errorf("monitor: nil scorer")
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	rpc, err := ethrpc.NewMultiClient(cfg.RPCURLs,
		ethrpc.WithPlaneHedge(cfg.Hedge),
		ethrpc.WithPlaneBreaker(cfg.BreakerStreak, cfg.BreakerCooldown),
		ethrpc.WithPlaneRetries(0, cfg.RetryBackoff))
	if err != nil {
		return nil, err
	}
	progress := NewProgress(cfg.CheckpointPath, cfg.CheckpointEvery, "")
	pipe, err := newPipeline(scorer, rpc, PipelineConfig{
		QueueSize:    cfg.QueueSize,
		ScoreWorkers: cfg.ScoreWorkers,
		Fetchers:     cfg.Fetchers,
		FetchBatch:   cfg.FetchBatch,
		Threshold:    cfg.Threshold,
		DropWhenFull: cfg.DropWhenFull,
		Sinks:        cfg.Sinks,
	}, progress)
	if err != nil {
		return nil, err
	}
	b := &Backfill{
		cfg:    cfg,
		pipe:   pipe,
		rpc:    rpc,
		reg:    explorer.NewCrawler(cfg.ExplorerURL),
		shards: partitionRange(cfg.From, cfg.To, cfg.Shards),
	}
	m, ok, err := progress.Resume()
	if err != nil {
		return nil, err
	}
	if ok {
		if err := b.resumeShards(m.shards); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// partitionRange splits [from, to] into n contiguous shards of near-equal
// size, each starting with cursor = from-1 (nothing scored yet).
func partitionRange(from, to uint64, n int) []shard {
	span := to - from + 1
	out := make([]shard, n)
	var start uint64 = from
	for i := 0; i < n; i++ {
		size := span / uint64(n)
		if uint64(i) < span%uint64(n) {
			size++
		}
		out[i] = shard{from: start, to: start + size - 1, cursor: start - 1}
		start += size
	}
	return out
}

// resumeShards installs a checkpoint's shard marks. Marks must describe the
// same overall range, tiled in order with neither gap nor overlap (each
// mark starts the block after the previous one ends); their layout then
// wins over the configured Shards count (cursors are only meaningful
// against the layout that produced them). A plain watcher checkpoint (no
// marks) contributes just its judged set — scans restart from scratch but
// already-judged bytecodes still collapse into dedup hits.
func (b *Backfill) resumeShards(marks []shardMark) error {
	if len(marks) == 0 {
		return nil
	}
	first := marks[0].From
	last := marks[len(marks)-1].To
	if first != b.cfg.From || last != b.cfg.To {
		return fmt.Errorf("monitor: checkpoint %s covers blocks [%d, %d], not the requested [%d, %d] — pick a fresh checkpoint path for a new range",
			b.cfg.CheckpointPath, first, last, b.cfg.From, b.cfg.To)
	}
	shards := make([]shard, len(marks))
	next := b.cfg.From
	for i, m := range marks {
		if m.From != next || m.From > m.To || m.Cursor < m.From-1 || m.Cursor > m.To {
			return fmt.Errorf("monitor: checkpoint %s shard %d has inconsistent marks [%d, %d] cursor %d (the range continues at block %d)",
				b.cfg.CheckpointPath, i, m.From, m.To, m.Cursor, next)
		}
		shards[i] = shard{from: m.From, to: m.To, cursor: m.Cursor}
		next = m.To + 1
	}
	b.shards = shards
	return nil
}

// Cursor returns the contiguous lower bound of progress: the minimum shard
// cursor (every block at or below it has been fully scored).
func (b *Backfill) Cursor() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cursorLocked()
}

func (b *Backfill) cursorLocked() uint64 {
	// Shards are ordered by block range: the fully scored prefix extends
	// through every completed shard and ends at the first unfinished
	// shard's cursor.
	cur := b.shards[0].cursor
	for _, s := range b.shards {
		if s.cursor < s.to {
			return s.cursor
		}
		cur = s.cursor
	}
	return cur
}

// SeenUnique returns the number of judged bytecode hashes.
func (b *Backfill) SeenUnique() int { return b.pipe.SeenUnique() }

// ModelVersion returns the lifecycle version of the most recent score.
func (b *Backfill) ModelVersion() string { return b.pipe.ModelVersion() }

// Endpoints snapshots the fetch plane's per-endpoint scheduler state.
func (b *Backfill) Endpoints() []ethrpc.EndpointStats { return b.rpc.Stats() }

// Stats snapshots pipeline counters, shard progress and the fetch plane.
func (b *Backfill) Stats() BackfillStats {
	s := b.pipe.Stats()
	b.mu.Lock()
	s.Cursor = b.cursorLocked()
	shards := make([]ShardStats, len(b.shards))
	for i, sh := range b.shards {
		shards[i] = ShardStats{From: sh.from, To: sh.to, Cursor: sh.cursor, Done: sh.cursor >= sh.to}
	}
	b.mu.Unlock()
	return BackfillStats{Stats: s, Shards: shards, Endpoints: b.rpc.Stats()}
}

// Run scans the configured range to completion (or until ctx is cancelled),
// then returns. It owns the pipeline's pools; call it at most once per
// Backfill.
func (b *Backfill) Run(ctx context.Context) error {
	b.pipe.Start(ctx)
	defer func() {
		b.pipe.Stop()
		// Final checkpoint after the score pool drains: jobs that were still
		// in flight at cancellation failed (and were released), so the
		// snapshot only ever claims completed work.
		if err := b.pipe.progress.Flush(b.mark); err != nil {
			b.pipe.ctr.errors.Add(1)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, len(b.shards))
	for i := range b.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- b.runShard(ctx, i)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// maxWindowRetries bounds consecutive failures of one shard window. A
// watcher retries forever because it is a long-running process tracking a
// head; a backfill is a batch job — against a persistently broken registry
// or RPC plane it must terminate with the error (progress up to the failure
// is checkpointed, so a rerun resumes) instead of spinning silently.
const maxWindowRetries = 10

// runShard walks one shard window by window: list the window's deployments,
// run them through the shared pipeline, commit the shard cursor. A window
// that fails (registry fault, fetch fault, score fault) is retried with
// growing backoff — failed scores were un-remembered, so the retry
// re-judges exactly the lost deployments — and after maxWindowRetries
// consecutive failures the shard gives up and surfaces the error.
func (b *Backfill) runShard(ctx context.Context, i int) error {
	failures := 0
	backoff := 50 * time.Millisecond
	for {
		b.mu.Lock()
		cur, end := b.shards[i].cursor, b.shards[i].to
		b.mu.Unlock()
		if cur >= end {
			return nil
		}
		to := cur + b.cfg.WindowBlocks
		if to > end {
			to = end
		}
		if err := b.scanWindow(ctx, cur+1, to); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if failures++; failures >= maxWindowRetries {
				return fmt.Errorf("monitor: backfill shard %d gave up on window [%d, %d] after %d attempts: %w",
					i, cur+1, to, failures, err)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			if backoff < 5*time.Second {
				backoff *= 2
			}
			continue // retry the window; the cursor did not move
		}
		failures = 0
		backoff = 50 * time.Millisecond
		b.pipe.ctr.blocksSeen.Add(to - cur)
		b.advanceShard(i, to)
	}
}

func (b *Backfill) scanWindow(ctx context.Context, from, to uint64) error {
	addrs, err := b.reg.ListContracts(ctx, from, to)
	if err != nil {
		b.pipe.ctr.errors.Add(1)
		return err
	}
	return b.pipe.Scan(ctx, addrs, to)
}

// advanceShard commits one shard window and checkpoints at most every
// CheckpointEvery (shared across shards).
func (b *Backfill) advanceShard(i int, cursor uint64) {
	b.mu.Lock()
	b.shards[i].cursor = cursor
	b.mu.Unlock()
	if err := b.pipe.progress.Tick(b.mark); err != nil {
		b.pipe.ctr.errors.Add(1)
	}
}

// mark snapshots the shard cursors for a checkpoint.
func (b *Backfill) mark() Mark {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := Mark{Cursor: b.cursorLocked(), shards: make([]shardMark, len(b.shards))}
	for i, sh := range b.shards {
		m.shards[i] = shardMark{From: sh.from, To: sh.to, Cursor: sh.cursor}
	}
	return m
}

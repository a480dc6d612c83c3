package txstream

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/lru"
	"github.com/phishinghook/phishinghook/internal/monitor"
)

// scoreAttempts is the per-tx retry budget before a tx is poisoned (marked
// judged so the stream keeps moving; counted, never alerted).
const scoreAttempts = 3

// Config tunes a tx Watcher. An RPC endpoint (RPCURL or RPCURLs) is
// required; there is no registry dependency — the feed carries full tx
// objects.
type Config struct {
	// RPCURL is the JSON-RPC endpoint the pending-tx filter is installed on.
	RPCURL string
	// RPCURLs optionally spreads the watcher over several endpoints through
	// the adaptive plane. The filter pins whichever node the plane installs
	// it on; code fetches roam freely.
	RPCURLs []string
	// Hedge re-issues straggling RPC requests on a second endpoint after
	// this delay (multi-endpoint only; 0 disables).
	Hedge time.Duration
	// PollInterval is the longest wait for the next feed poll after an
	// empty one when no newPendingTransactions notification arrives first
	// (default 50ms — mempool cadence, not block cadence). Non-empty polls
	// chain immediately to drain backlog at plane speed.
	PollInterval time.Duration
	// ScoreWorkers sizes the per-batch score pool (default GOMAXPROCS).
	ScoreWorkers int
	// Threshold is the minimum fused P(phishing) that fires an alert
	// (default 0.5).
	Threshold float64
	// CheckpointPath persists the cursor + judged tx-hash set; a restarted
	// watcher resumes from it without re-alerting. Empty disables
	// checkpointing.
	CheckpointPath string
	// CheckpointEvery rate-limits checkpoint writes (default 1s), plus one
	// final write when Run returns.
	CheckpointEvery time.Duration
	// StartBlock seeds the cursor when no checkpoint exists: the feed opens
	// at StartBlock+1.
	StartBlock uint64
	// StopAtBlock makes Run return nil once the feed is drained and the
	// chain head has reached it (0 = run until cancelled).
	StopAtBlock uint64
	// CodeCacheSize bounds the callee-bytecode LRU (default 4096 callees).
	// Mempool traffic concentrates on few contracts, so the cache converts
	// the per-tx eth_getCode round trip into a map lookup.
	CodeCacheSize int
	// Sinks receive alerts. Sink errors are counted, never fatal.
	Sinks []monitor.Sink
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
	if c.RPCURL == "" && len(c.RPCURLs) == 0 {
		return fmt.Errorf("txstream: Config needs an RPC endpoint")
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 50 * time.Millisecond
	}
	if c.ScoreWorkers <= 0 {
		c.ScoreWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = time.Second
	}
	if c.CodeCacheSize <= 0 {
		c.CodeCacheSize = 4096
	}
	return nil
}

func (c *Config) endpoints() []string {
	if len(c.RPCURLs) > 0 {
		return c.RPCURLs
	}
	return []string{c.RPCURL}
}

// Watcher drains the pending-transaction feed and judges every tx exactly
// once: the feed is polled at-least-once (filter replays, reopen-after-
// failover, restart-from-checkpoint all re-deliver), and a persisted tx-hash
// dedup set collapses the replays so each hash is scored and alerted at most
// once across process lifetimes.
//
// The in-memory dedup set holds two states per hash: claimed (a score is in
// flight this batch) and judged (durably decided). Only judged hashes are
// checkpointed — a kill mid-score leaves the hash out of the snapshot, so
// the resume replays and judges it exactly once.
type Watcher struct {
	cfg    Config
	scorer Scorer
	rpc    *ethrpc.MultiClient
	codes  *lru.Cache[chain.Address, []byte]
	ctr    counters
	poison *poisonSet

	mu      sync.Mutex
	cursor  uint64
	seen    map[[32]byte]bool // false = claimed (in flight), true = judged
	judged  int               // count of true entries, for O(1) snapshot sizing
	version string            // lifecycle version of the latest fused score

	// lastCkpt is touched only by the Run goroutine.
	lastCkpt time.Time
}

// New builds a tx watcher over the given fused scorer, resuming from
// cfg.CheckpointPath when a tx-modality checkpoint exists (a contract
// checkpoint at that path is refused — the cursors index different logs).
func New(scorer Scorer, cfg Config) (*Watcher, error) {
	if scorer == nil {
		return nil, fmt.Errorf("txstream: nil scorer")
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
	w := &Watcher{
		cfg:    cfg,
		scorer: scorer,
		rpc:    rpc,
		codes:  lru.New[chain.Address, []byte](cfg.CodeCacheSize),
		poison: newPoisonSet(),
		cursor: cfg.StartBlock,
		seen:   make(map[[32]byte]bool),
	}
	if cfg.CheckpointPath != "" {
		cp, ok, err := monitor.LoadTxCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if ok {
			w.cursor = cp.Cursor
			w.version = cp.ModelVersion
			for _, h := range cp.Seen {
				w.seen[h] = true
			}
			w.judged = len(cp.Seen)
		}
	}
	return w, nil
}

// Cursor returns the last block whose visible txs have all been judged.
func (w *Watcher) Cursor() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cursor
}

// SeenUnique returns the size of the judged tx-hash dedup set.
func (w *Watcher) SeenUnique() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.judged
}

// ModelVersion returns the lifecycle version behind the most recent fused
// score (restored from the checkpoint on resume).
func (w *Watcher) ModelVersion() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.version
}

// Endpoints snapshots the RPC plane's per-endpoint scheduler state.
func (w *Watcher) Endpoints() []ethrpc.EndpointStats { return w.rpc.Stats() }

// Stats snapshots the watcher's counters.
func (w *Watcher) Stats() Stats {
	hits, misses := w.codes.Stats()
	w.mu.Lock()
	cursor, judged, version := w.cursor, w.judged, w.version
	w.mu.Unlock()
	return Stats{
		Modality:        "tx",
		ModelVersion:    version,
		Cursor:          cursor,
		Polls:           w.ctr.polls.Load(),
		Wakes:           w.ctr.wakes.Load(),
		TxsSeen:         w.ctr.txsSeen.Load(),
		TxsScored:       w.ctr.txsScored.Load(),
		DedupHits:       w.ctr.dedupHits.Load(),
		Alerts:          w.ctr.alerts.Load(),
		Poisoned:        w.ctr.poisoned.Load(),
		PoisonPending:   w.poison.len(),
		Errors:          w.ctr.errors.Load(),
		FeedReopens:     w.ctr.feedReopens.Load(),
		SeenUnique:      judged,
		CodeCacheHits:   hits,
		CodeCacheMisses: misses,
		ScoreP50MS:      float64(w.ctr.latency.Quantile(0.50)) / float64(time.Millisecond),
		ScoreP99MS:      float64(w.ctr.latency.Quantile(0.99)) / float64(time.Millisecond),
	}
}

// Run drains the feed until the context is cancelled or (with StopAtBlock
// set) the feed is empty and the head has reached StopAtBlock. Call it at
// most once per Watcher. After an empty poll it polls again after
// PollInterval or as soon as a newPendingTransactions notification arrives,
// whichever comes first; after a fault it waits the full interval.
func (w *Watcher) Run(ctx context.Context) error {
	feed, err := w.rpc.OpenTxFeed(ctx, w.Cursor()+1)
	if err != nil {
		return err
	}
	subCtx, unsubscribe := context.WithCancel(ctx)
	defer unsubscribe()
	wake := w.rpc.Subscribe(subCtx, ethrpc.NewPendingTransactions)
	defer func() {
		// Best-effort uninstall on a context that still works after cancel.
		closeCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		feed.Close(closeCtx)
		cancel()
		if w.cfg.CheckpointPath != "" {
			w.saveCheckpointNow()
		}
	}()

	// pendingMax is the highest block observed in delivered batches that the
	// cursor has not yet committed: an empty poll proves the filter drained
	// everything visible, so pendingMax becomes the cursor.
	pendingMax := w.Cursor()
	// headReached is set once a head read returns at least StopAtBlock. Txs
	// may land between the empty poll and that read, so Run stops only on
	// the next empty poll.
	headReached := false
	for {
		w.ctr.polls.Add(1)
		batch, err := feed.Poll(ctx)
		switch {
		case err == nil:
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, ethrpc.ErrFilterNotFound):
			// Node restart or failover forgot the filter. Reinstall from the
			// committed cursor — the replayed overlap collapses into dedup
			// hits, so judging stays exactly-once.
			w.ctr.feedReopens.Add(1)
			nf, oerr := w.rpc.OpenTxFeed(ctx, w.Cursor()+1)
			if oerr != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				w.ctr.errors.Add(1)
				if !w.sleep(ctx, nil) {
					return ctx.Err()
				}
				continue
			}
			feed = nf
			pendingMax = w.Cursor()
			continue
		default:
			w.ctr.errors.Add(1)
			if !w.sleep(ctx, nil) {
				return ctx.Err()
			}
			continue
		}

		if len(batch) == 0 {
			// Drained: everything visible up to pendingMax is judged.
			w.advanceCursor(pendingMax)
			if headReached {
				w.advanceCursor(w.cfg.StopAtBlock)
				return nil
			}
			if stop := w.cfg.StopAtBlock; stop > 0 {
				head, herr := w.rpc.BlockNumber(ctx)
				if herr == nil && head >= stop {
					headReached = true
					continue
				}
				if herr != nil && ctx.Err() != nil {
					return ctx.Err()
				}
			}
			if !w.sleep(ctx, wake) {
				return ctx.Err()
			}
			continue
		}

		w.ctr.txsSeen.Add(uint64(len(batch)))
		if err := w.judgeBatch(ctx, feed, batch); err != nil {
			return err
		}
		maxBlock := batch[0].Block
		for i := range batch {
			if batch[i].Block > maxBlock {
				maxBlock = batch[i].Block
			}
		}
		if maxBlock > pendingMax {
			pendingMax = maxBlock
		}
		// The batch may have been truncated mid-block by the server's
		// per-poll cap, so only maxBlock−1 is provably complete; the final
		// block commits on the next empty poll. Replays of the overlap are
		// absorbed by the dedup set.
		if maxBlock > 0 {
			w.advanceCursor(maxBlock - 1)
		}
	}
}

// sleep waits one poll interval, or less when wake fires first (a nil wake,
// the fault backoff, never does), reporting false when the context died.
// The timer is stopped on return: a wake-cut wait must not leave it pending
// for the rest of PollInterval.
func (w *Watcher) sleep(ctx context.Context, wake <-chan struct{}) bool {
	t := time.NewTimer(w.cfg.PollInterval)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-wake:
		w.ctr.wakes.Add(1)
		return true
	case <-t.C:
		return true
	}
}

// judgeBatch claims the batch's unseen hashes and scores them on the worker
// pool, returning only on context death (per-tx faults poison, they do not
// abort the stream).
func (w *Watcher) judgeBatch(ctx context.Context, feed *ethrpc.TxFeed, batch []ethrpc.PendingTx) error {
	// Claim phase: skip hashes already judged or in flight; mark the rest
	// claimed so a concurrent replay in the same batch cannot double-score.
	claimed := batch[:0]
	w.mu.Lock()
	for i := range batch {
		if _, ok := w.seen[batch[i].Hash]; ok {
			w.ctr.dedupHits.Add(1)
			continue
		}
		w.seen[batch[i].Hash] = false
		claimed = append(claimed, batch[i])
	}
	w.mu.Unlock()
	if len(claimed) == 0 {
		return ctx.Err()
	}

	workers := w.cfg.ScoreWorkers
	if workers > len(claimed) {
		workers = len(claimed)
	}
	work := make(chan *ethrpc.PendingTx)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tx := range work {
				w.judgeTx(ctx, feed, tx)
			}
		}()
	}
	for i := range claimed {
		work <- &claimed[i]
	}
	close(work)
	wg.Wait()
	return ctx.Err()
}

// judgeTx fetches the callee's code (through the LRU), runs the fused
// scorer with a bounded retry, and either alerts + marks the hash judged or
// poisons it. A context death instead unclaims the hash so the judged set —
// and therefore the checkpoint — never contains an unscored tx; the cursor
// cannot advance after a cancellation, so the restart replays the hash.
//
// A fetch or score fault must NOT unclaim: the server-side filter cursor has
// already moved past this tx, so it will not be redelivered — an unclaimed
// fault would be silently lost once the block cursor advances. Faults retry
// here and then poison (judged, never alerted), keeping judging
// at-least-once and alerting at-most-once.
func (w *Watcher) judgeTx(ctx context.Context, feed *ethrpc.TxFeed, tx *ethrpc.PendingTx) {
	var v TxVerdict
	var code []byte
	var err error
	for attempt := 0; attempt < scoreAttempts; attempt++ {
		if ctx.Err() != nil {
			w.unclaim(tx.Hash)
			return
		}
		if code, err = w.calleeCode(ctx, feed, tx.To); err != nil {
			if ctx.Err() != nil {
				w.unclaim(tx.Hash)
				return
			}
			w.ctr.errors.Add(1)
			continue
		}
		start := time.Now()
		if v, err = w.scorer.ScoreTx(ctx, tx.Calldata, code); err == nil {
			w.ctr.latency.Observe(time.Since(start))
			break
		}
		if ctx.Err() != nil {
			w.unclaim(tx.Hash)
			return
		}
		w.ctr.errors.Add(1)
	}
	if err != nil {
		// Poisoned: repeatedly unscorable. Mark judged so the cursor can
		// advance past it; it will not alert unless an operator drains the
		// quarantine after fixing the underlying fault.
		w.ctr.poisoned.Add(1)
		w.poison.add(*tx, err)
		w.markJudged(tx.Hash, "")
		return
	}

	w.ctr.txsScored.Add(1)
	if p := v.PhishProb(); p >= w.cfg.Threshold {
		alert := monitor.Alert{
			Address:        tx.To.String(),
			CodeHash:       codeHashHex(code),
			Block:          tx.Block,
			Confidence:     p,
			Model:          v.Model,
			ModelVersion:   v.Version,
			Modality:       "tx",
			TxHash:         tx.HashHex(),
			EvasionSuspect: v.EvasionSuspect,
			Time:           time.Now().UTC(),
		}
		for _, s := range w.cfg.Sinks {
			if serr := s.Emit(alert); serr != nil {
				w.ctr.errors.Add(1)
			}
		}
		w.ctr.alerts.Add(1)
	}
	w.markJudged(tx.Hash, v.Version)
}

// calleeCode resolves the callee's deployed bytecode through the LRU; nil
// (an EOA callee) is a valid, cacheable answer — the found flag on Get
// distinguishes it from a miss.
func (w *Watcher) calleeCode(ctx context.Context, feed *ethrpc.TxFeed, addr chain.Address) ([]byte, error) {
	if code, ok := w.codes.Get(addr); ok {
		return code, nil
	}
	code, err := feed.GetCodeAt(ctx, addr)
	if err != nil {
		return nil, err
	}
	w.codes.Add(addr, code)
	return code, nil
}

func (w *Watcher) unclaim(h [32]byte) {
	w.mu.Lock()
	if judged, ok := w.seen[h]; ok && !judged {
		delete(w.seen, h)
	}
	w.mu.Unlock()
}

func (w *Watcher) markJudged(h [32]byte, version string) {
	w.mu.Lock()
	if judged, ok := w.seen[h]; !ok || !judged {
		w.seen[h] = true
		w.judged++
	}
	if version != "" {
		w.version = version
	}
	w.mu.Unlock()
}

// advanceCursor commits judged progress, persisting at most every
// CheckpointEvery (plus the final write when Run returns).
func (w *Watcher) advanceCursor(block uint64) {
	w.mu.Lock()
	if block > w.cursor {
		w.cursor = block
	}
	w.mu.Unlock()
	if w.cfg.CheckpointPath == "" || time.Since(w.lastCkpt) < w.cfg.CheckpointEvery {
		return
	}
	w.saveCheckpointNow()
}

// saveCheckpointNow snapshots cursor + judged hashes and writes the
// tx-modality checkpoint. Claimed-but-unjudged hashes are deliberately
// excluded: a kill mid-score must replay them.
func (w *Watcher) saveCheckpointNow() {
	w.mu.Lock()
	tc := monitor.TxCheckpoint{
		Cursor:       w.cursor,
		ModelVersion: w.version,
		Seen:         make([][32]byte, 0, w.judged),
	}
	for h, judged := range w.seen {
		if judged {
			tc.Seen = append(tc.Seen, h)
		}
	}
	w.mu.Unlock()
	if err := monitor.SaveTxCheckpoint(w.cfg.CheckpointPath, tc); err != nil {
		w.ctr.errors.Add(1)
	}
	w.lastCkpt = time.Now()
}

// codeHashHex is the alert's dedup-compatible code hash: hex SHA-256 of the
// callee bytecode (the hash of empty input for EOA callees).
func codeHashHex(code []byte) string {
	sum := sha256.Sum256(code)
	return hex.EncodeToString(sum[:])
}

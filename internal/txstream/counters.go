package txstream

import (
	"sync/atomic"

	"github.com/phishinghook/phishinghook/internal/monitor"
)

// counters aggregates the tx watcher's observability state. All fields are
// atomics: the poll loop and the score pool both write them.
type counters struct {
	polls       atomic.Uint64
	wakes       atomic.Uint64
	txsSeen     atomic.Uint64
	txsScored   atomic.Uint64
	dedupHits   atomic.Uint64
	alerts      atomic.Uint64
	poisoned    atomic.Uint64
	errors      atomic.Uint64
	feedReopens atomic.Uint64
	latency     monitor.LatencyHist
}

// Stats is a point-in-time snapshot of a tx Watcher's counters, JSON-ready
// for the serving layer. Modality is always "tx" so contract and tx stats
// are distinguishable side by side on /metrics.
type Stats struct {
	Modality string `json:"modality"`
	// ModelVersion is the lifecycle version behind the most recent
	// successful fused score (the code half's version).
	ModelVersion string `json:"model_version,omitempty"`
	// Cursor is the last block whose visible txs have all been judged.
	Cursor uint64 `json:"cursor"`
	// Polls counts feed polls, including empty ones.
	Polls uint64 `json:"polls"`
	// Wakes counts polls a newPendingTransactions notification started
	// early (zero, and omitted, without a working subscription).
	Wakes uint64 `json:"wakes,omitempty"`
	// TxsSeen counts transactions delivered by the feed (pre-dedup).
	TxsSeen uint64 `json:"txs_seen"`
	// TxsScored counts transactions actually run through the fused scorer.
	TxsScored uint64 `json:"txs_scored"`
	// DedupHits counts feed replays skipped because the tx hash was already
	// judged (at-least-once polling collapses here to exactly-once judging).
	DedupHits uint64 `json:"dedup_hits"`
	// Alerts counts sink emissions.
	Alerts uint64 `json:"alerts"`
	// Poisoned counts txs abandoned after repeatedly failing to score.
	Poisoned uint64 `json:"poisoned"`
	// PoisonPending is the current quarantine size (poisoned, not yet
	// drained via /admin/poison).
	PoisonPending int `json:"poison_pending"`
	// Errors counts RPC/score/sink failures.
	Errors uint64 `json:"errors"`
	// FeedReopens counts filter reinstalls after a node forgot the filter.
	FeedReopens uint64 `json:"feed_reopens"`
	// SeenUnique is the size of the tx-hash dedup set.
	SeenUnique int `json:"seen_unique"`
	// CodeCacheHits / CodeCacheMisses describe the callee-bytecode LRU —
	// the cache that keeps the steady-state score path off the RPC plane.
	CodeCacheHits   uint64 `json:"code_cache_hits"`
	CodeCacheMisses uint64 `json:"code_cache_misses"`
	// ScoreP50MS and ScoreP99MS are fused-score latency quantile upper
	// bounds in milliseconds.
	ScoreP50MS float64 `json:"score_p50_ms"`
	ScoreP99MS float64 `json:"score_p99_ms"`
}

package monitor

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latencyBuckets is the histogram resolution: bucket i counts scores whose
// latency is < 2^i microseconds, the last bucket catching everything slower.
const latencyBuckets = 32

// LatencyHist is a lock-free power-of-two latency histogram. Quantiles are
// answered as the upper bound of the bucket holding the q-th observation, so
// they are upper estimates with at most 2x resolution error — plenty for
// monitoring dashboards, and far cheaper than tracking every sample. The
// zero value is ready to use and safe for concurrent use.
type LatencyHist struct {
	buckets [latencyBuckets]atomic.Uint64
}

// Observe records one latency.
func (h *LatencyHist) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us)) // 0 for 0µs, else floor(log2)+1
	if b >= latencyBuckets {
		b = latencyBuckets - 1
	}
	h.buckets[b].Add(1)
}

// Quantile returns an upper bound on the q-th latency quantile, or 0 when
// nothing has been observed.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	var counts [latencyBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, n := range counts {
		seen += n
		if seen > rank {
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	return time.Duration(uint64(1)<<(latencyBuckets-1)) * time.Microsecond
}

// counters aggregates the watcher's observability state. All fields are
// atomics: the polling loop, fetch pool and score pool all write them.
type counters struct {
	polls           atomic.Uint64
	blocksSeen      atomic.Uint64
	contractsSeen   atomic.Uint64
	contractsScored atomic.Uint64
	dedupHits       atomic.Uint64
	alerts          atomic.Uint64
	dropped         atomic.Uint64
	poisoned        atomic.Uint64
	errors          atomic.Uint64
	latency         LatencyHist
}

// Stats is a point-in-time snapshot of a Watcher's counters, JSON-ready for
// the serving layer.
type Stats struct {
	// Modality is the workload the stats describe: "" (implicitly
	// "contract", keeping existing JSON byte-for-byte) or "tx".
	Modality string `json:"modality,omitempty"`
	// ModelVersion is the lifecycle version of the most recent successful
	// score (empty for unversioned scorers).
	ModelVersion string `json:"model_version,omitempty"`
	// Cursor is the last fully scored block (checkpointed).
	Cursor uint64 `json:"cursor"`
	// Polls counts head polls, including no-op ones.
	Polls uint64 `json:"polls"`
	// BlocksSeen counts blocks scanned past the cursor.
	BlocksSeen uint64 `json:"blocks_seen"`
	// ContractsSeen counts deployments observed in scanned blocks.
	ContractsSeen uint64 `json:"contracts_seen"`
	// ContractsScored counts deployments actually scored (seen minus dedup
	// hits and drops).
	ContractsScored uint64 `json:"contracts_scored"`
	// DedupHits counts deployments skipped because their bytecode hash was
	// already scored (EIP-1167 clones collapse here).
	DedupHits uint64 `json:"dedup_hits"`
	// Alerts counts sink emissions.
	Alerts uint64 `json:"alerts"`
	// Dropped counts deployments shed under the drop policy.
	Dropped uint64 `json:"dropped"`
	// Poisoned counts bytecodes abandoned after repeatedly failing to
	// score (the per-window retry gives up so the pipeline keeps moving).
	Poisoned uint64 `json:"poisoned"`
	// Errors counts RPC/registry/sink/score failures.
	Errors uint64 `json:"errors"`
	// QueueDepth and QueueCap describe the score queue at snapshot time.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// ScoreP50MS and ScoreP99MS are score-latency quantile upper bounds in
	// milliseconds.
	ScoreP50MS float64 `json:"score_p50_ms"`
	ScoreP99MS float64 `json:"score_p99_ms"`
}

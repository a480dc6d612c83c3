package phishinghook

import (
	"fmt"

	"github.com/phishinghook/phishinghook/internal/models"
	"github.com/phishinghook/phishinghook/internal/txstream"
)

// Transaction-modality re-exports: the mempool-scale tx stream lives in
// internal/txstream; these aliases mirror the Watchtower's (watch.go).
type (
	// TxWatcher drains the pending-transaction feed and judges every tx
	// exactly once, fusing calldata and callee-code evidence.
	TxWatcher = txstream.Watcher
	// TxWatcherConfig tunes a TxWatcher (endpoints, threshold, checkpoint,
	// code cache, sinks).
	TxWatcherConfig = txstream.Config
	// TxWatcherStats is a snapshot of the tx watcher's counters.
	TxWatcherStats = txstream.Stats
	// TxVerdict is one fused transaction decision (payload + callee code).
	TxVerdict = txstream.TxVerdict
	// TxScorer judges one transaction from its calldata and callee code.
	TxScorer = txstream.Scorer
)

// CalldataModel returns the transaction-payload model spec ("Calldata
// Forest"): a random forest over 4-byte-selector/byte-n-gram/argument-shape
// calldata features. Train it on Simulation.TxDataset (or any calldata
// corpus loaded as a Dataset) and pass the result to NewFusedTxScorer as the
// payload side.
func CalldataModel() (ModelSpec, error) { return models.SpecByName("Calldata Forest") }

// NewFusedTxScorer fuses a payload scorer (a *Detector trained with
// CalldataModel on calldata samples) with a code scorer (the deployment-time
// detector, or a *Swappable lifecycle handle so the code side hot-swaps
// mid-watch) into one transaction scorer:
//
//	P(phishing | tx) = 1 − (1 − P(payload))(1 − P(callee code))
//
// Empty calldata contributes 0 on the payload side; an EOA callee
// contributes 0 on the code side. Both detectors keep their own digest
// caches, so the steady-state fused path is allocation-free.
func NewFusedTxScorer(payload, code CodeScorer) (*txstream.Fused, error) {
	if payload == nil || code == nil {
		return nil, fmt.Errorf("phishinghook: NewFusedTxScorer needs payload and code scorers")
	}
	return txstream.NewFused(payload, code)
}

// NewTxWatcher builds a transaction watcher over a fused (or custom) tx
// scorer. The watcher polls the node's pending-transaction filter in
// amortized batches over the adaptive RPC plane, dedups by tx hash with a
// persisted checkpoint (exactly-once alerting across restarts), resolves
// callee bytecode through an LRU, and emits Modality="tx" alerts through the
// same sink types the Watchtower uses.
func NewTxWatcher(s TxScorer, cfg TxWatcherConfig) (*TxWatcher, error) {
	if s == nil {
		return nil, fmt.Errorf("phishinghook: NewTxWatcher needs a scorer")
	}
	return txstream.New(s, cfg)
}

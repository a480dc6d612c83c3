package phishinghook

import (
	"context"
	"fmt"
	"io"
	"log"

	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/monitor"
)

// Watchtower re-exports: the deployment-monitoring subsystem lives in
// internal/monitor; these aliases let embedders and the CLI name its types
// without reaching into internal packages (the same pattern as Dataset).
type (
	// Watcher follows the chain head and scores every new deployment.
	Watcher = monitor.Watcher
	// WatcherConfig tunes a Watcher (endpoints, queue, threshold,
	// checkpoint, sinks).
	WatcherConfig = monitor.Config
	// WatcherStats is a snapshot of the watcher's counters.
	WatcherStats = monitor.Stats
	// Alert is one phishing verdict above the watcher's threshold.
	Alert = monitor.Alert
	// AlertSink consumes alerts.
	AlertSink = monitor.Sink
	// JSONLSink appends alerts as JSON lines to a writer or file.
	JSONLSink = monitor.JSONLSink
	// Backfill scans a historical block range through the shared ingestion
	// pipeline: parallel range shards over an adaptive multi-endpoint fetch
	// plane, with resumable per-shard checkpoints.
	Backfill = monitor.Backfill
	// BackfillConfig tunes a Backfill (endpoints, range, shards, pipeline
	// knobs, checkpoint).
	BackfillConfig = monitor.BackfillConfig
	// BackfillStats snapshots a backfill: pipeline counters plus per-shard
	// progress and per-endpoint fetch-plane state.
	BackfillStats = monitor.BackfillStats
	// EndpointStats is one RPC endpoint's AIMD/health/throughput snapshot.
	EndpointStats = ethrpc.EndpointStats
	// CodeScorer is the scoring surface a watcher drives: *Detector (one
	// immutable model), *Swappable (the lifecycle handle, hot-swappable
	// under live traffic) and *RemoteScorer (a scoring cluster) satisfy it.
	CodeScorer = monitor.Scorer
)

// NewWatcher builds a Watchtower watcher that scores new deployments through
// the given surface — a *Detector, or a *Swappable handle so the serving
// model can be hot-swapped mid-watch without dropping a score. The surface's
// feature cache and concurrent Score path are shared with any other serving
// traffic on it.
func NewWatcher(s CodeScorer, cfg WatcherConfig) (*Watcher, error) {
	if s == nil {
		return nil, fmt.Errorf("phishinghook: NewWatcher needs a scorer")
	}
	return monitor.New(s, cfg)
}

// NewBackfill builds a backfill scanner that scores every historical
// deployment in a block range through the given surface — a *Detector, or a
// *Swappable lifecycle handle. The range is partitioned into parallel
// shards, fetches fan out over cfg.RPCURLs through the adaptive
// multi-endpoint plane, and per-shard progress checkpoints to
// cfg.CheckpointPath so a killed backfill resumes exactly where it stopped.
func NewBackfill(s CodeScorer, cfg BackfillConfig) (*Backfill, error) {
	if s == nil {
		return nil, fmt.Errorf("phishinghook: NewBackfill needs a scorer")
	}
	return monitor.NewBackfill(s, cfg)
}

// NewJSONLSink wraps a writer that receives one JSON alert per line.
func NewJSONLSink(w io.Writer) AlertSink { return monitor.NewJSONLSink(w) }

// OpenJSONLSink opens (appending) a JSONL alert file; Close it when done.
func OpenJSONLSink(path string) (*JSONLSink, error) { return monitor.OpenJSONLSink(path) }

// NewLogSink logs one line per alert (nil logger = stderr).
func NewLogSink(l *log.Logger) AlertSink { return monitor.LogSink(l) }

// NewFuncSink adapts a function to an AlertSink (in-process fan-out).
func NewFuncSink(f func(Alert) error) AlertSink { return monitor.FuncSink(f) }

// NewChanSink forwards alerts into a channel, dropping (with an error
// counted) when the channel is full.
func NewChanSink(ch chan<- Alert) AlertSink { return monitor.ChanSink(ch) }

// NewMultiSink fans each alert out to every sink.
func NewMultiSink(sinks ...AlertSink) AlertSink { return monitor.MultiSink(sinks...) }

// AlertWAL is a write-ahead alert journal around an inner sink: alerts the
// sink refuses spill to an fsynced journal file and replay on recovery (or
// after a restart) instead of being dropped.
type AlertWAL = monitor.WALSink

// AlertWALStats snapshots a journal's spill/replay counters.
type AlertWALStats = monitor.WALStats

// OpenAlertWAL opens (creating) the journal at path around inner. Entries a
// previous process left behind replay on the first healthy emit or an
// explicit Replay call.
func OpenAlertWAL(path string, inner AlertSink) (*AlertWAL, error) {
	return monitor.OpenWALSink(path, inner)
}

// CurrentHead fetches the node's head block (eth_blockNumber) — used to seed
// a fresh watcher's cursor at "now" so its first scan doesn't replay chain
// history.
func CurrentHead(ctx context.Context, rpcURL string) (uint64, error) {
	client, err := ethrpc.NewMultiClient([]string{rpcURL})
	if err != nil {
		return 0, err
	}
	return client.BlockNumber(ctx)
}

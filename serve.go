package phishinghook

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/phishinghook/phishinghook/internal/httpapi"
	"github.com/phishinghook/phishinghook/internal/monitor"
)

// The /score and /score/tx wire contract lives in internal/httpapi, shared
// with the cluster router; these aliases keep the root names.
type (
	// ScoreRequest is the POST /score payload: one bytecode, a batch, or
	// both (the single bytecode joins the batch at position 0).
	ScoreRequest = httpapi.ScoreRequest
	// ScoreVerdict is the wire form of a Verdict or TxVerdict.
	ScoreVerdict = httpapi.Verdict
	// ScoreResponse is the reply to /score and /score/tx.
	ScoreResponse = httpapi.ScoreResponse
	// TxScoreItem is one transaction to judge: hex calldata plus the
	// callee's hex bytecode, either of which may be empty.
	TxScoreItem = httpapi.TxScoreItem
	// TxScoreRequest is the POST /score/tx payload: one transaction, a
	// batch, or both.
	TxScoreRequest = httpapi.TxScoreRequest
)

// toWire and fromWire are the one mapping between a Verdict and its wire
// form, each way; txToWire adds the tx fields to toWire's.
func toWire(v Verdict) ScoreVerdict {
	return ScoreVerdict{
		Label:           v.Label.String(),
		Phishing:        v.IsPhishing(),
		Confidence:      v.Confidence,
		Model:           v.ModelName,
		ModelVersion:    v.ModelVersion,
		DeadCodeRatio:   v.DeadCodeRatio,
		ScoreDivergence: v.ScoreDivergence,
		EvasionSuspect:  v.EvasionSuspect,
	}
}

func fromWire(w ScoreVerdict) Verdict {
	label := Benign
	if w.Phishing {
		label = Phishing
	}
	return Verdict{
		Label:           label,
		Confidence:      w.Confidence,
		ModelName:       w.Model,
		ModelVersion:    w.ModelVersion,
		DeadCodeRatio:   w.DeadCodeRatio,
		ScoreDivergence: w.ScoreDivergence,
		EvasionSuspect:  w.EvasionSuspect,
	}
}

func txToWire(v TxVerdict) ScoreVerdict {
	w := toWire(v.Verdict)
	w.Modality, w.PayloadProb, w.CodeProb = "tx", v.PayloadProb, v.CodeProb
	return w
}

// ScoreBackend is the surface NewScoreHandler serves: both *Detector (one
// immutable model for the life of the process) and *Swappable (the lifecycle
// handle, hot-swappable with a shadow challenger) satisfy it.
type ScoreBackend interface {
	ScoreBatch(ctx context.Context, codes [][]byte) ([]Verdict, error)
	ModelName() string
	FeatureDim() int
	CacheStats() (hits, misses uint64)
	ScoreCount() uint64
}

// ServeOption configures NewScoreHandler.
type ServeOption func(*serveState)

// WithWatcher attaches a Watchtower watcher so /metrics and /healthz expose
// its monitor counters (and, for multi-endpoint watchers, the fetch plane's
// per-endpoint series) alongside the detector's.
func WithWatcher(w *Watcher) ServeOption {
	return func(s *serveState) { s.watcher = w }
}

// WithBackfill attaches a backfill scanner so /metrics and /healthz expose
// its pipeline counters, per-shard cursors and per-endpoint fetch-plane
// series while the range scan runs. When a watcher is attached too, the
// watcher owns the shared phishinghook_monitor_* / phishinghook_rpc_* metric
// families (duplicate names are invalid exposition) and the backfill
// contributes only its phishinghook_backfill_shard_* series; /healthz always
// carries both full snapshots.
func WithBackfill(b *Backfill) ServeOption {
	return func(s *serveState) { s.backfill = b }
}

// WithPprof mounts the net/http/pprof endpoints on the score mux:
//
//	GET /debug/pprof/           — profile index
//	GET /debug/pprof/profile    — 30s CPU profile
//	GET /debug/pprof/heap, goroutine, allocs, block, mutex, threadcreate
//	GET /debug/pprof/cmdline, symbol, trace
//
// Off by default: profiles expose internals (command line, memory
// contents), so only enable it on operator-facing listeners. With it on, a
// live watcher can be profiled without redeploying:
//
//	go tool pprof http://host:port/debug/pprof/profile
func WithPprof() ServeOption {
	return func(s *serveState) { s.pprof = true }
}

// WithLifecycle attaches a lifecycle manager, mounting the admin surface
// that drives the champion/challenger flow at runtime:
//
//	GET  /admin/versions — store contents + live champion/challenger
//	POST /admin/reload   — re-read the store manifest and sync the handle
//	                       (hot-swap a new champion, install a challenger)
//	POST /admin/promote  — flip the live challenger into the champion slot
//
// The handler should be serving the manager's Handle() so admin actions and
// scoring observe the same state. Like pprof, the admin surface belongs on
// operator-facing listeners only.
func WithLifecycle(lc *Lifecycle) ServeOption {
	return func(s *serveState) { s.lifecycle = lc }
}

// WithRetrainer exposes a drift retrainer's counters on /metrics and
// /healthz alongside the serving stats.
func WithRetrainer(r *Retrainer) ServeOption {
	return func(s *serveState) { s.retrainer = r }
}

// WithTxScorer attaches a transaction scorer (NewFusedTxScorer, or any
// TxScorer), mounting the second modality's scoring surface:
//
//	POST /score/tx — {"tx": {"calldata": "0x..", "code": "0x.."}} and/or
//	                 {"txs": [...]} → fused Modality="tx" verdicts
func WithTxScorer(ts TxScorer) ServeOption {
	return func(s *serveState) { s.txScorer = ts }
}

// WithTxWatcher attaches a transaction watcher so /metrics and /healthz
// expose its stream counters (phishinghook_tx_* series) alongside the
// contract-side state.
func WithTxWatcher(w *TxWatcher) ServeOption {
	return func(s *serveState) { s.txWatcher = w }
}

// WithClusterRole labels this process's place in the scoring cluster —
// "replica" when fronted by a `phishinghook route` ring, "standalone" (the
// default) otherwise. The role is reported on /healthz and /readyz so ring
// tooling and operators can tell the topologies apart. (The router reports
// "router" from its own handler in internal/cluster.)
func WithClusterRole(role string) ServeOption {
	return func(s *serveState) {
		if role != "" {
			s.role = role
		}
	}
}

type serveState struct {
	watcher   *monitor.Watcher
	backfill  *Backfill
	txScorer  TxScorer
	txWatcher *TxWatcher
	lifecycle *Lifecycle
	retrainer *Retrainer
	pprof     bool
	role      string
	started   time.Time
}

// NewScoreHandler exposes a scoring backend — a *Detector, or a *Swappable
// lifecycle handle — over HTTP:
//
//	POST /score   — {"bytecode": "0x.."} and/or {"bytecodes": ["0x..", ...]}
//	GET  /healthz — liveness + model + uptime + cache/score stats
//	GET  /metrics — Prometheus text format (detector + monitor + lifecycle)
//	POST /admin/* — champion/challenger flow, only when WithLifecycle is given
//	GET  /debug/pprof/* — live profiling, only when WithPprof is given
//
// Scoring runs on the backend's worker pool and shares its sharded LRU
// bytecode→score cache, so a handler is safe under heavy concurrent
// traffic. Serving a Swappable additionally means the model can be
// hot-swapped (POST /admin/reload, /admin/promote) without dropping an
// in-flight request.
func NewScoreHandler(d ScoreBackend, opts ...ServeOption) http.Handler {
	state := &serveState{started: time.Now(), role: "standalone"}
	for _, opt := range opts {
		opt(state)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/score", func(w http.ResponseWriter, r *http.Request) {
		if !httpapi.Only(w, r, http.MethodPost) {
			return
		}
		b, ok := httpapi.ReadBatch(w, r)
		if !ok {
			return
		}
		t0 := time.Now()
		verdicts, err := d.ScoreBatch(r.Context(), b.Codes)
		if err != nil {
			httpapi.Error(w, http.StatusInternalServerError, "score: %v", err)
			return
		}
		wire := make([]ScoreVerdict, len(verdicts))
		for i, v := range verdicts {
			wire[i] = toWire(v)
		}
		httpapi.WriteVerdicts(w, wire, b.Single, t0)
	})
	if state.txScorer != nil {
		mux.HandleFunc("/score/tx", func(w http.ResponseWriter, r *http.Request) {
			serveTxScore(w, r, state.txScorer)
		})
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		hits, misses := d.CacheStats()
		body := map[string]any{
			"status":         "ok",
			"role":           state.role,
			"model":          d.ModelName(),
			"feature_dim":    d.FeatureDim(),
			"cache_hits":     hits,
			"cache_misses":   misses,
			"scores":         d.ScoreCount(),
			"uptime_seconds": time.Since(state.started).Seconds(),
		}
		if sw, ok := d.(*Swappable); ok {
			body["lifecycle"] = sw.SwapStats()
		}
		if state.retrainer != nil {
			body["retrainer"] = state.retrainer.Stats()
		}
		if state.watcher != nil {
			body["monitor"] = state.watcher.Stats()
		}
		if state.backfill != nil {
			body["backfill"] = state.backfill.Stats()
		}
		if state.txWatcher != nil {
			body["tx_monitor"] = state.txWatcher.Stats()
		}
		httpapi.WriteJSON(w, http.StatusOK, body)
	})
	// Readiness is distinct from liveness: /healthz answers 200 as long as
	// the process is up, while /readyz flips unready whenever the backend is
	// momentarily unfit to score — no champion deployed yet, or a lifecycle
	// reload/promote mid-swap. A cluster's rolling promote gates each step
	// on the previous replica's /readyz returning 200.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		reason := ""
		if sw, ok := d.(*Swappable); ok && !sw.Deployed() {
			reason = "no champion deployed"
		}
		if state.lifecycle != nil && state.lifecycle.Busy() {
			reason = "model swap in progress"
		}
		if reason != "" {
			httpapi.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "role": state.role, "reason": reason})
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"ready": true, "role": state.role})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeMetrics(w, d, state)
	})
	if state.lifecycle != nil {
		mountAdmin(mux, state.lifecycle)
	}
	if state.txWatcher != nil {
		mountPoisonAdmin(mux, state.txWatcher)
	}
	if state.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// serveTxScore handles POST /score/tx: decode the single+batch request,
// fuse-score each (calldata, code) pair, and answer Modality="tx" verdicts
// in request order.
func serveTxScore(w http.ResponseWriter, r *http.Request, ts TxScorer) {
	if !httpapi.Only(w, r, http.MethodPost) {
		return
	}
	b, ok := httpapi.ReadTxBatch(w, r)
	if !ok {
		return
	}
	t0 := time.Now()
	wire := make([]ScoreVerdict, len(b.Txs))
	for i, tx := range b.Txs {
		v, err := ts.ScoreTx(r.Context(), tx.Calldata, tx.Code)
		if err != nil {
			httpapi.Error(w, http.StatusInternalServerError, "score tx %d: %v", i, err)
			return
		}
		wire[i] = txToWire(v)
	}
	httpapi.WriteVerdicts(w, wire, b.Single, t0)
}

// mountAdmin wires the champion/challenger admin surface onto the mux.
func mountAdmin(mux *http.ServeMux, lc *Lifecycle) {
	liveState := func() map[string]any {
		champ, _ := lc.Handle().Champion()
		chal, _, hasChal := lc.Handle().Challenger()
		body := map[string]any{"champion": champ}
		if hasChal {
			body["challenger"] = chal
		}
		return body
	}
	mux.HandleFunc("/admin/versions", func(w http.ResponseWriter, r *http.Request) {
		if !httpapi.Only(w, r, http.MethodGet) {
			return
		}
		body := liveState()
		body["versions"] = lc.Versions()
		httpapi.WriteJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if !httpapi.Only(w, r, http.MethodPost) {
			return
		}
		changed, err := lc.Reload()
		if err != nil {
			httpapi.Error(w, http.StatusInternalServerError, "reload: %v", err)
			return
		}
		body := liveState()
		body["changed"] = changed
		httpapi.WriteJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("/admin/promote", func(w http.ResponseWriter, r *http.Request) {
		if !httpapi.Only(w, r, http.MethodPost) {
			return
		}
		id, err := lc.Promote()
		if err != nil {
			// No challenger is a state conflict; anything else (e.g. a
			// manifest write failure) is a server fault.
			status := http.StatusInternalServerError
			if _, _, ok := lc.Handle().Challenger(); !ok {
				status = http.StatusConflict
			}
			httpapi.Error(w, status, "promote: %v", err)
			return
		}
		body := liveState()
		body["promoted"] = id
		httpapi.WriteJSON(w, http.StatusOK, body)
	})
}

// writeMetrics renders /metrics: the detector's series plus those of every
// attached workload.
func writeMetrics(w http.ResponseWriter, d ScoreBackend, state *serveState) {
	var e httpapi.Exposition
	hits, misses := d.CacheStats()
	e.Metric("phishinghook_uptime_seconds", "Seconds since the handler started.", "gauge", time.Since(state.started).Seconds())
	e.Metric("phishinghook_scores_total", "Bytecodes scored by the detector.", "counter", float64(d.ScoreCount()))
	e.Metric("phishinghook_feature_cache_hits_total", "Feature-cache hits.", "counter", float64(hits))
	e.Metric("phishinghook_feature_cache_misses_total", "Feature-cache misses.", "counter", float64(misses))
	if as, ok := d.(interface{ AdversaryStats() AdversaryStats }); ok {
		s := as.AdversaryStats()
		e.Metric("phishinghook_adversary_scored_total", "Verdicts served with evasion telemetry.", "counter", float64(s.Scored))
		e.Metric("phishinghook_adversary_suspects_total", "Verdicts flagged evasion-suspect.", "counter", float64(s.Suspects))
		e.Metric("phishinghook_adversary_proxies_total", "EIP-1167 minimal proxies scored.", "counter", float64(s.Proxies))
		e.Metric("phishinghook_adversary_mean_dead_ratio", "Mean dead-code ratio over telemetry-scored verdicts.", "gauge", s.MeanDeadRatio)
		e.Metric("phishinghook_adversary_mean_divergence", "Mean raw-vs-canonical score divergence over telemetry-scored verdicts.", "gauge", s.MeanDivergence)
	}
	if sw, ok := d.(*Swappable); ok {
		writeLifecycleMetrics(&e, sw.SwapStats())
	}
	if rt := state.retrainer; rt != nil {
		s := rt.Stats()
		e.Metric("phishinghook_retrainer_observed_total", "Scores observed by the drift retrainer.", "counter", float64(s.Observed))
		e.Metric("phishinghook_retrainer_checks_total", "Drift evaluations performed.", "counter", float64(s.Checks))
		e.Metric("phishinghook_retrainer_triggers_total", "Drift triggers fired.", "counter", float64(s.Triggers))
		e.Metric("phishinghook_retrainer_retrains_total", "Retraining rounds completed.", "counter", float64(s.Retrains))
		e.Metric("phishinghook_retrainer_train_errors_total", "Retraining rounds failed.", "counter", float64(s.TrainErrors))
		e.Metric("phishinghook_retrainer_last_psi", "Most recent PSI between reference and live scores.", "gauge", s.LastPSI)
		e.Metric("phishinghook_retrainer_last_ks_p", "Most recent two-sample KS p-value.", "gauge", s.LastKSP)
	}
	if wt := state.watcher; wt != nil {
		writeMonitorSeries(&e, wt.Stats())
		writeEndpointSeries(&e, wt.Endpoints())
	}
	if bf := state.backfill; bf != nil {
		s := bf.Stats()
		// The pipeline and endpoint families are shared with the watcher;
		// emitting them twice would duplicate metric names (invalid
		// exposition, Prometheus drops the whole scrape), so with both
		// attached the watcher owns those families and the backfill
		// contributes its shard progress.
		if state.watcher == nil {
			writeMonitorSeries(&e, s.Stats)
			writeEndpointSeries(&e, s.Endpoints)
		}
		writeShardSeries(&e, s.Shards)
	}
	if tw := state.txWatcher; tw != nil {
		writeTxSeries(&e, tw.Stats())
		// The phishinghook_rpc_endpoint_* family is owned by whichever
		// ingestion workload is attached first (watcher, then backfill);
		// the tx watcher contributes its plane only when it is alone.
		if state.watcher == nil && state.backfill == nil {
			writeEndpointSeries(&e, tw.Endpoints())
		}
	}
	e.Serve(w)
}

// writeLatencySummary renders a p50/p99 score-latency summary.
func writeLatencySummary(e *httpapi.Exposition, name, help string, p50, p99 float64) {
	e.Family(name, help, "summary")
	e.Sample(name, "quantile", "0.5", p50)
	e.Sample(name, "quantile", "0.99", p99)
}

// writeVersionInfo renders a {version="..."} 1 info gauge, omitted while
// the version is unknown.
func writeVersionInfo(e *httpapi.Exposition, name, help, version string) {
	if version != "" {
		e.Family(name, help, "gauge")
		e.Sample(name, "version", version, 1)
	}
}

// writeTxSeries renders the transaction-stream counters.
func writeTxSeries(e *httpapi.Exposition, s TxWatcherStats) {
	e.Metric("phishinghook_tx_cursor_block", "Last block whose visible txs are all judged.", "gauge", float64(s.Cursor))
	e.Metric("phishinghook_tx_polls_total", "Pending-tx feed polls performed.", "counter", float64(s.Polls))
	e.Metric("phishinghook_tx_wakes_total", "Feed polls a newPendingTransactions notification started early.", "counter", float64(s.Wakes))
	e.Metric("phishinghook_tx_seen_total", "Transactions delivered by the feed.", "counter", float64(s.TxsSeen))
	e.Metric("phishinghook_tx_scored_total", "Transactions run through the fused scorer.", "counter", float64(s.TxsScored))
	e.Metric("phishinghook_tx_dedup_hits_total", "Feed replays skipped as already judged.", "counter", float64(s.DedupHits))
	e.Metric("phishinghook_tx_alerts_total", "Transaction alerts emitted.", "counter", float64(s.Alerts))
	e.Metric("phishinghook_tx_poisoned_total", "Transactions abandoned after repeated score failures.", "counter", float64(s.Poisoned))
	e.Metric("phishinghook_tx_errors_total", "RPC/score/sink errors on the tx stream.", "counter", float64(s.Errors))
	e.Metric("phishinghook_tx_feed_reopens_total", "Pending-tx filter reinstalls after loss.", "counter", float64(s.FeedReopens))
	e.Metric("phishinghook_tx_code_cache_hits_total", "Callee-bytecode cache hits.", "counter", float64(s.CodeCacheHits))
	e.Metric("phishinghook_tx_code_cache_misses_total", "Callee-bytecode cache misses.", "counter", float64(s.CodeCacheMisses))
	writeLatencySummary(e, "phishinghook_tx_score_latency_ms", "Fused tx score latency quantile upper bounds.", s.ScoreP50MS, s.ScoreP99MS)
	writeVersionInfo(e, "phishinghook_tx_model_version", "Lifecycle version behind the most recent fused score.", s.ModelVersion)
}

// writeMonitorSeries renders the shared ingestion-pipeline counters — the
// same series whether a live watcher or a backfill drives the pipeline.
func writeMonitorSeries(e *httpapi.Exposition, s WatcherStats) {
	e.Metric("phishinghook_monitor_cursor_block", "Last fully scored block.", "gauge", float64(s.Cursor))
	e.Metric("phishinghook_monitor_polls_total", "Head polls performed.", "counter", float64(s.Polls))
	e.Metric("phishinghook_monitor_wakes_total", "Head polls a newHeads notification started early.", "counter", float64(s.Wakes))
	e.Metric("phishinghook_monitor_blocks_seen_total", "Blocks scanned.", "counter", float64(s.BlocksSeen))
	e.Metric("phishinghook_monitor_contracts_seen_total", "Deployments observed.", "counter", float64(s.ContractsSeen))
	e.Metric("phishinghook_monitor_contracts_scored_total", "Deployments scored.", "counter", float64(s.ContractsScored))
	e.Metric("phishinghook_monitor_dedup_hits_total", "Deployments skipped as bytecode duplicates.", "counter", float64(s.DedupHits))
	e.Metric("phishinghook_monitor_alerts_total", "Alerts emitted.", "counter", float64(s.Alerts))
	e.Metric("phishinghook_monitor_dropped_total", "Deployments shed under the drop policy.", "counter", float64(s.Dropped))
	e.Metric("phishinghook_monitor_poisoned_total", "Bytecodes abandoned after repeated score failures.", "counter", float64(s.Poisoned))
	e.Metric("phishinghook_monitor_errors_total", "RPC/registry/sink errors.", "counter", float64(s.Errors))
	e.Metric("phishinghook_monitor_queue_depth", "Score-queue occupancy.", "gauge", float64(s.QueueDepth))
	e.Metric("phishinghook_monitor_queue_capacity", "Score-queue bound.", "gauge", float64(s.QueueCap))
	writeLatencySummary(e, "phishinghook_monitor_score_latency_ms", "Score latency quantile upper bounds.", s.ScoreP50MS, s.ScoreP99MS)
	writeVersionInfo(e, "phishinghook_monitor_model_version", "Lifecycle version of the most recent score.", s.ModelVersion)
}

// writeEndpointSeries renders the fetch plane's per-endpoint scheduler
// state — the operator view of AIMD windows, health and congestion that the
// backfill/watch throughput story is steered by.
func writeEndpointSeries(e *httpapi.Exposition, eps []EndpointStats) {
	if len(eps) == 0 {
		return
	}
	series := func(name, help, typ string, value func(EndpointStats) float64) {
		e.Family(name, help, typ)
		for _, ep := range eps {
			e.Sample(name, "endpoint", ep.URL, value(ep))
		}
	}
	series("phishinghook_rpc_endpoint_requests_total", "RPC exchanges attempted per endpoint.", "counter",
		func(ep EndpointStats) float64 { return float64(ep.Requests) })
	series("phishinghook_rpc_endpoint_successes_total", "RPC exchanges answered per endpoint.", "counter",
		func(ep EndpointStats) float64 { return float64(ep.Successes) })
	series("phishinghook_rpc_endpoint_rate_limited_total", "429 responses per endpoint.", "counter",
		func(ep EndpointStats) float64 { return float64(ep.RateLimited) })
	series("phishinghook_rpc_endpoint_timeouts_total", "Timed-out exchanges per endpoint.", "counter",
		func(ep EndpointStats) float64 { return float64(ep.Timeouts) })
	series("phishinghook_rpc_endpoint_failures_total", "Other transport/server faults per endpoint.", "counter",
		func(ep EndpointStats) float64 { return float64(ep.Failures) })
	series("phishinghook_rpc_endpoint_hedges_total", "Hedged (raced) requests per endpoint.", "counter",
		func(ep EndpointStats) float64 { return float64(ep.Hedges) })
	series("phishinghook_rpc_endpoint_limit", "Current AIMD concurrency window.", "gauge",
		func(ep EndpointStats) float64 { return ep.Limit })
	series("phishinghook_rpc_endpoint_inflight", "Exchanges currently charged against the window.", "gauge",
		func(ep EndpointStats) float64 { return float64(ep.Inflight) })
	series("phishinghook_rpc_endpoint_health", "Success EWMA per endpoint.", "gauge",
		func(ep EndpointStats) float64 { return ep.Health })
}

// writeShardSeries renders backfill shard progress.
func writeShardSeries(e *httpapi.Exposition, shards []monitor.ShardStats) {
	if len(shards) == 0 {
		return
	}
	series := func(name, help, typ string, value func(monitor.ShardStats) float64) {
		e.Family(name, help, typ)
		for i, sh := range shards {
			e.Sample(name, "shard", strconv.Itoa(i), value(sh))
		}
	}
	series("phishinghook_backfill_shard_cursor", "Last fully scored block per shard.", "gauge",
		func(s monitor.ShardStats) float64 { return float64(s.Cursor) })
	series("phishinghook_backfill_shard_done", "1 once the shard finished its range.", "gauge",
		func(s monitor.ShardStats) float64 {
			if s.Done {
				return 1
			}
			return 0
		})
	series("phishinghook_backfill_shard_remaining_blocks", "Blocks left to scan per shard.", "gauge",
		func(s monitor.ShardStats) float64 { return float64(s.To - s.Cursor) })
}

// writeLifecycleMetrics renders the Swappable's per-version counters and
// shadow divergence — the champion/challenger observability the admin flow
// is steered by.
func writeLifecycleMetrics(e *httpapi.Exposition, s SwapStats) {
	writeVersionInfo(e, "phishinghook_champion_info", "Live champion model version.", s.Champion)
	writeVersionInfo(e, "phishinghook_challenger_info", "Live shadow challenger model version.", s.Challenger)
	e.Metric("phishinghook_model_swaps_total", "Model hot-swaps performed on the serving handle.", "counter", float64(s.Swaps))
	if len(s.Versions) > 0 {
		series := func(name, help string, value func(VersionStats) float64, typ string) {
			e.Family(name, help, typ)
			for _, v := range s.Versions {
				e.Sample(name, "version", v.Version, value(v))
			}
		}
		series("phishinghook_version_scored_total", "Scores served per model version.",
			func(v VersionStats) float64 { return float64(v.Scored) }, "counter")
		series("phishinghook_version_flagged_total", "Phishing verdicts per model version.",
			func(v VersionStats) float64 { return float64(v.Flagged) }, "counter")
		series("phishinghook_version_shadow_scored_total", "Shadow (challenger) scores per model version.",
			func(v VersionStats) float64 { return float64(v.ShadowScored) }, "counter")
		series("phishinghook_version_precision_proxy", "High-confidence share of flags per version (ground-truth-free precision indicator).",
			func(v VersionStats) float64 { return v.PrecisionProxy }, "gauge")
	}
	e.Metric("phishinghook_shadow_compared_total", "Deployments scored by both champion and challenger.", "counter", float64(s.Shadow.Compared))
	e.Metric("phishinghook_shadow_disagreements_total", "Champion/challenger label disagreements.", "counter", float64(s.Shadow.Disagreements))
	e.Metric("phishinghook_shadow_mean_abs_delta", "Mean |P_champion - P_challenger| over compared traffic.", "gauge", s.Shadow.MeanAbsDelta)
	e.Metric("phishinghook_shadow_dropped_total", "Shadow replays shed on a full queue.", "counter", float64(s.Shadow.Dropped))
	e.Metric("phishinghook_shadow_errors_total", "Challenger score failures.", "counter", float64(s.Shadow.Errors))
}

// mountPoisonAdmin wires the tx quarantine's operator surface onto the mux:
//
//	GET  /admin/poison                    — the quarantined txs (judged after
//	                                        exhausting score retries, never
//	                                        alerted) with their last errors
//	POST /admin/poison {"action":"drain"} — retry every entry against the
//	                                        current scorer/plane; recovered
//	                                        txs alert (their first time) and
//	                                        leave the set
func mountPoisonAdmin(mux *http.ServeMux, tw *TxWatcher) {
	mux.HandleFunc("/admin/poison", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			entries := tw.PoisonList()
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"pending": len(entries), "entries": entries})
		case http.MethodPost:
			var req struct {
				Action string `json:"action"`
			}
			if r.Body != nil {
				_ = json.NewDecoder(r.Body).Decode(&req)
			}
			if req.Action == "" {
				req.Action = r.URL.Query().Get("action")
			}
			switch req.Action {
			case "", "drain", "retry":
				res := tw.DrainPoison(r.Context())
				httpapi.WriteJSON(w, http.StatusOK, map[string]any{"drain": res, "pending": len(tw.PoisonList())})
			default:
				httpapi.Error(w, http.StatusBadRequest, "unknown poison action %q (want drain)", req.Action)
			}
		default:
			httpapi.Error(w, http.StatusMethodNotAllowed, "use GET to list, POST to drain")
		}
	})
}

// Server wraps http.Server with the production posture a scoring replica
// needs: header/write timeouts against slowloris and stuck clients, and
// context-driven graceful shutdown that drains in-flight scores before the
// process exits — a replica kill (SIGTERM from an orchestrator, a rolling
// restart) must not drop requests it already accepted.
type Server struct {
	srv      *http.Server
	ln       net.Listener
	draining atomic.Bool
	done     chan struct{}

	// LameDuck is how long the server keeps accepting traffic after
	// Shutdown begins while already failing /readyz — the window a router
	// or load balancer needs to notice the replica is going away and stop
	// picking it before the listener actually closes. 0 closes immediately.
	LameDuck time.Duration
}

// NewServer builds a hardened server around a score handler. While a
// Shutdown is draining, the wrapped /readyz answers 503 ("draining") so
// routers and orchestrators stop sending new work to a replica on its way
// out, while already-accepted requests still complete.
func NewServer(addr string, handler http.Handler) *Server {
	s := &Server{done: make(chan struct{})}
	s.srv = &http.Server{
		Addr: addr,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if s.draining.Load() && r.URL.Path == "/readyz" {
				httpapi.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
				return
			}
			handler.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
		// A full 1024-bytecode batch can legitimately take a while on a
		// loaded replica; these bound pathology, not honest work.
		ReadTimeout:  2 * time.Minute,
		WriteTimeout: 2 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
	return s
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln != nil {
		return s.ln.Addr().String()
	}
	return s.srv.Addr
}

// Start binds the listener and serves in the background, returning once the
// address is bound. Serve errors (other than graceful close) surface on the
// returned channel.
func (s *Server) Start() (<-chan error, error) {
	ln, err := net.Listen("tcp", s.srv.Addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	errc := make(chan error, 1)
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
		close(errc)
	}()
	return errc, nil
}

// ListenAndServe binds and serves in the foreground (the CLI path).
func (s *Server) ListenAndServe() error {
	errc, err := s.Start()
	if err != nil {
		return err
	}
	return <-errc
}

// Shutdown drains the server: readiness flips to 503 immediately, the
// listener closes, and in-flight requests run to completion (bounded by
// ctx). Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.LameDuck > 0 {
		select {
		case <-time.After(s.LameDuck):
		case <-ctx.Done():
		}
	}
	err := s.srv.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
	}
	return err
}

// Draining reports whether a graceful shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/evm"
	"github.com/phishinghook/phishinghook/internal/httpapi"
)

// Config tunes a Router.
type Config struct {
	// Replicas are the scoring replicas' base URLs (each serving the
	// standard /score, /healthz, /readyz and /admin surface). Required.
	Replicas []string
	// Vnodes is the per-replica virtual-node count (default 64).
	Vnodes int
	// Neighborhood is how many candidate replicas (owner + ring
	// successors) each key may be scheduled onto (default 2, capped at the
	// replica count). 1 disables failover rehashing.
	Neighborhood int
	// Hedge re-issues a straggling sub-request on a second neighborhood
	// replica after this delay (0 disables).
	Hedge time.Duration
	// Attempts/Backoff drive the per-sub-request retry loop (defaults 4,
	// 50ms; a 429's Retry-After is honored instead when present).
	Attempts int
	Backoff  time.Duration
	// MaxConcurrency caps each replica's AIMD window (default 64).
	MaxConcurrency int
	// MaxPending bounds bytecodes admitted but not yet answered — the
	// router's queue. Admissions beyond it are refused with 429 and a
	// jittered Retry-After instead of queuing unboundedly (default 4096).
	MaxPending int
	// Timeout caps one HTTP exchange with a replica (default 30s).
	Timeout time.Duration
	// WatchdogStreak ejects a replica from owner scheduling after this many
	// consecutive timed-out sub-batches (default 3, negative disables). The
	// watchdog is the hang-without-crash complement to the plane's circuit
	// breaker: a crashed replica refuses connections and trips the breaker,
	// but a hung one eats the full Timeout per exchange — AIMD halves its
	// window yet the owner bonus keeps steering keys at it. Ejection demotes
	// it behind its ring neighbors for WatchdogCooldown, then re-probes.
	WatchdogStreak int
	// WatchdogCooldown is how long an ejected replica stays demoted before
	// the next sub-batch re-probes it (default 5s).
	WatchdogCooldown time.Duration
}

// ownerBonus is the scheduling-score bonus keeping keys on their hash owner
// (see ethrpc.WithPlaneOwnerAffinity).
const ownerBonus = 0.25

// Router is the stateless scoring front door: it owns no model and no
// cache, only the ring, the plane scheduler and counters — N routers can
// front the same replica set.
type Router struct {
	cfg       Config
	ring      *Ring
	plane     *ethrpc.Plane
	exchanger // replica HTTP client and the per-exchange Timeout

	started time.Time

	pending  atomic.Int64  // bytecodes admitted, not yet answered
	requests atomic.Uint64 // /score HTTP requests
	scored   atomic.Uint64 // bytecodes routed to a successful verdict
	rejected atomic.Uint64 // admissions refused with 429
	rehashes atomic.Uint64 // sub-batches served off-owner (failover/hedge win)
	errored  atomic.Uint64 // sub-batches failed after all retries
	ejected  atomic.Uint64 // watchdog ejections of hung replicas
	degraded atomic.Uint64 // tx verdicts answered by the code-only fallback

	// Hung-replica watchdog state: consecutive-timeout streak and the
	// demotion deadline per replica base URL.
	wmu     sync.Mutex
	wstreak map[string]int
	wuntil  map[string]time.Time
}

// NewRouter builds a router over the replica set.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one replica")
	}
	if cfg.Neighborhood <= 0 {
		cfg.Neighborhood = 2
	}
	if cfg.Neighborhood > len(cfg.Replicas) {
		cfg.Neighborhood = len(cfg.Replicas)
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 4
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 4096
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.WatchdogStreak == 0 {
		cfg.WatchdogStreak = 3
	}
	if cfg.WatchdogCooldown <= 0 {
		cfg.WatchdogCooldown = 5 * time.Second
	}
	ring, err := NewRing(cfg.Replicas, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	planeOpts := []ethrpc.PlaneOption{
		ethrpc.WithPlaneRetries(cfg.Attempts, cfg.Backoff),
		ethrpc.WithPlaneHedge(cfg.Hedge),
		ethrpc.WithPlaneRetryAfter(),
		ethrpc.WithPlaneOwnerAffinity(ownerBonus),
	}
	if cfg.MaxConcurrency > 0 {
		planeOpts = append(planeOpts, ethrpc.WithPlaneMaxConcurrency(cfg.MaxConcurrency))
	}
	plane, err := ethrpc.NewPlane(cfg.Replicas, planeOpts...)
	if err != nil {
		return nil, err
	}
	return &Router{
		cfg:       cfg,
		ring:      ring,
		plane:     plane,
		exchanger: newExchanger(cfg.Timeout),
		started:   time.Now(),
		wstreak:   make(map[string]int),
		wuntil:    make(map[string]time.Time),
	}, nil
}

// watchdogObserve feeds one sub-batch outcome into the hung-replica watchdog.
// Only full-exchange timeouts count toward the streak — refused connections
// and torn responses are the circuit breaker's domain, and a hedge loser's
// cancellation is neither. Any success resets the replica completely.
func (rt *Router) watchdogObserve(base string, err error) {
	if rt.cfg.WatchdogStreak < 0 {
		return
	}
	rt.wmu.Lock()
	defer rt.wmu.Unlock()
	if err == nil {
		delete(rt.wstreak, base)
		delete(rt.wuntil, base)
		return
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		return
	}
	rt.wstreak[base]++
	if rt.wstreak[base] >= rt.cfg.WatchdogStreak {
		rt.wstreak[base] = 0
		rt.wuntil[base] = time.Now().Add(rt.cfg.WatchdogCooldown)
		rt.ejected.Add(1)
	}
}

// watchdogEjected reports whether base is currently demoted; an expired
// demotion is cleared so the next sub-batch re-probes the replica.
func (rt *Router) watchdogEjected(base string) bool {
	rt.wmu.Lock()
	defer rt.wmu.Unlock()
	until, ok := rt.wuntil[base]
	if !ok {
		return false
	}
	if time.Now().Before(until) {
		return true
	}
	delete(rt.wuntil, base)
	return false
}

// demoteEjected reorders a neighborhood candidate list so watchdog-ejected
// replicas sort behind responsive ones: a hung owner loses both its sticky
// bonus and its place in line, but stays reachable as the last resort. When
// every candidate is ejected the original order stands — answering slowly
// beats refusing.
func (rt *Router) demoteEjected(cands []*ethrpc.Node) []*ethrpc.Node {
	if rt.cfg.WatchdogStreak < 0 || len(cands) < 2 {
		return cands
	}
	live := make([]*ethrpc.Node, 0, len(cands))
	var dead []*ethrpc.Node
	for _, n := range cands {
		if rt.watchdogEjected(n.Name()) {
			dead = append(dead, n)
		} else {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return cands
	}
	return append(live, dead...)
}

// Ring returns the router's hash ring (read-only).
func (rt *Router) Ring() *Ring { return rt.ring }

// Stats is the router's operational snapshot.
type Stats struct {
	Replicas []ethrpc.EndpointStats `json:"replicas"`
	Keyspace []float64              `json:"keyspace_fraction"`
	Requests uint64                 `json:"requests"`
	Scored   uint64                 `json:"scored"`
	Rejected uint64                 `json:"rejected"`
	Rehashes uint64                 `json:"rehashes"`
	Errors   uint64                 `json:"errors"`
	Pending  int64                  `json:"pending"`
	// Ejections counts hung-replica watchdog demotions; Degraded counts tx
	// verdicts answered by the code-only fallback while /score/tx faulted.
	Ejections uint64 `json:"watchdog_ejections"`
	Degraded  uint64 `json:"degraded_tx_verdicts"`
}

// Stats snapshots the router.
func (rt *Router) Stats() Stats {
	s := Stats{
		Replicas: rt.plane.Stats(),
		Keyspace: make([]float64, len(rt.cfg.Replicas)),
		Requests: rt.requests.Load(),
		Scored:   rt.scored.Load(),
		Rejected: rt.rejected.Load(),
		Rehashes: rt.rehashes.Load(),
		Errors:   rt.errored.Load(),
		Pending:  rt.pending.Load(),

		Ejections: rt.ejected.Load(),
		Degraded:  rt.degraded.Load(),
	}
	for i := range s.Keyspace {
		s.Keyspace[i] = rt.ring.OwnedFraction(i)
	}
	return s
}

// RouteBatch scores raw bytecodes across the ring and returns verdicts
// aligned with codes. It is the Go-level routing core under the HTTP
// handler; errors are all-or-nothing per call.
func (rt *Router) RouteBatch(ctx context.Context, codes [][]byte) ([]httpapi.Verdict, error) {
	hexes := make([]string, len(codes))
	for i, c := range codes {
		hexes[i] = evm.EncodeHex(c)
	}
	return rt.route(ctx, codes, hexes)
}

// RouteTxBatch routes transactions (hex calldata + callee bytecode) across
// the ring and returns fused verdicts aligned with items. Each tx is keyed by
// its callee bytecode's SHA-256 — the same key /score shards on — so a tx
// lands on the replica whose code-side digest cache its callee already
// warmed. EOA callees (empty code) all share KeyOf(nil) and pin to one
// neighborhood, which is fine: their code side is a constant zero and the
// payload cache still dedups by calldata digest.
func (rt *Router) RouteTxBatch(ctx context.Context, items []httpapi.TxScoreItem) ([]httpapi.Verdict, error) {
	codes := make([][]byte, len(items))
	for i, it := range items {
		code, err := evm.DecodeHex(it.Code)
		if err != nil {
			return nil, fmt.Errorf("cluster: tx %d code: %w", i, err)
		}
		codes[i] = code
	}
	return rt.routeTx(ctx, items, codes)
}

// route scores bytecodes (hexes[i] encodes codes[i]) through /score.
func (rt *Router) route(ctx context.Context, codes [][]byte, hexes []string) ([]httpapi.Verdict, error) {
	return rt.fanOut(ctx, codes, "/score", func(idx []int) any {
		req := httpapi.ScoreRequest{Bytecodes: make([]string, len(idx))}
		for j, i := range idx {
			req.Bytecodes[j] = hexes[i]
		}
		return req
	}, nil)
}

// routeTx scores transactions (codes[i] is items[i].Code decoded) through
// /score/tx. A sub-batch that fails on every candidate is re-answered by
// txCodeFallback.
func (rt *Router) routeTx(ctx context.Context, items []httpapi.TxScoreItem, codes [][]byte) ([]httpapi.Verdict, error) {
	return rt.fanOut(ctx, codes, "/score/tx", func(idx []int) any {
		req := httpapi.TxScoreRequest{Txs: make([]httpapi.TxScoreItem, len(idx))}
		for j, i := range idx {
			req.Txs[j] = items[i]
		}
		return req
	}, func(ctx context.Context, idx []int) ([]httpapi.Verdict, error) {
		return rt.txCodeFallback(ctx, items, codes, idx)
	})
}

// fanOut groups items by the hash neighborhood of their code, sends each
// group's sub-batch (the request body(idx) builds for the items at idx) to
// path on its own goroutine through the plane, and reassembles the verdicts
// in request order. A group that fails on every candidate is re-answered by
// fallback when one is given and the caller is still waiting.
func (rt *Router) fanOut(ctx context.Context, codes [][]byte, path string,
	body func(idx []int) any, fallback func(ctx context.Context, idx []int) ([]httpapi.Verdict, error)) ([]httpapi.Verdict, error) {
	type group struct {
		cands []*ethrpc.Node // candidate nodes, owner first
		idx   []int          // positions in the original request
	}
	nodes := rt.plane.Nodes()
	groups := make(map[string]*group)
	for i, code := range codes {
		hood := rt.ring.Neighborhood(KeyOf(code), rt.cfg.Neighborhood)
		gk := fmt.Sprint(hood)
		g, ok := groups[gk]
		if !ok {
			g = &group{cands: make([]*ethrpc.Node, len(hood))}
			for j, ri := range hood {
				g.cands[j] = nodes[ri]
			}
			g.cands = rt.demoteEjected(g.cands)
			groups[gk] = g
		}
		g.idx = append(g.idx, i)
	}

	what := "sub-batch"
	if path == "/score/tx" {
		what = "tx sub-batch"
	}
	out := make([]httpapi.Verdict, len(codes))
	var wg sync.WaitGroup
	errCh := make(chan error, len(groups))
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			owner := g.cands[0]
			req := body(g.idx)
			verdicts, err := ethrpc.PlaneDo(ctx, rt.plane, g.cands, func(ctx context.Context, n *ethrpc.Node) ([]httpapi.Verdict, error) {
				vs, err := rt.exchange(ctx, n.Name(), path, req, len(g.idx))
				rt.watchdogObserve(n.Name(), err)
				if err == nil && n != owner {
					rt.rehashes.Add(1)
				}
				return vs, err
			})
			if err != nil && fallback != nil && ctx.Err() == nil {
				if fvs, ferr := fallback(ctx, g.idx); ferr == nil {
					rt.degraded.Add(uint64(len(fvs)))
					verdicts, err = fvs, nil
				}
			}
			if err != nil {
				rt.errored.Add(1)
				errCh <- fmt.Errorf("cluster: %s of %d via %s: %w", what, len(g.idx), owner.Name(), err)
				return
			}
			for j, v := range verdicts {
				out[g.idx[j]] = v
			}
			rt.scored.Add(uint64(len(verdicts)))
		}(g)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}
	return out, nil
}

// txCodeFallback re-answers a failed /score/tx sub-batch (the items at idx)
// from the code half alone: the callee bytecodes go through the ordinary
// /score path (which may land on any healthy replica), the payload
// probability is reported as zero and the code probability is the code
// verdict's P(phishing), as on the fused path; the code verdict's evasion
// telemetry is kept. EOA callees — no code to judge, no calldata scorer
// reachable — degrade to an explicit benign zero-confidence verdict. The
// point is that a replica-side calldata-model fault does not silence
// code-evidenced alerts; fused confidence returns when /score/tx recovers.
func (rt *Router) txCodeFallback(ctx context.Context, items []httpapi.TxScoreItem, codes [][]byte, idx []int) ([]httpapi.Verdict, error) {
	out := make([]httpapi.Verdict, len(idx))
	var subCodes [][]byte
	var hexes []string
	var pos []int
	for j, i := range idx {
		if len(codes[i]) == 0 {
			out[j] = httpapi.Verdict{Label: "benign", Modality: "tx"}
			continue
		}
		subCodes = append(subCodes, codes[i])
		hexes = append(hexes, items[i].Code)
		pos = append(pos, j)
	}
	if len(subCodes) > 0 {
		vs, err := rt.route(ctx, subCodes, hexes)
		if err != nil {
			return nil, err
		}
		for k, v := range vs {
			v.Modality, v.CodeProb = "tx", v.Confidence
			if !v.Phishing {
				v.CodeProb = 1 - v.Confidence
			}
			out[pos[k]] = v
		}
	}
	return out, nil
}

// retryAfterSeconds is the jittered backpressure hint attached to a 429:
// uniformly 50–150ms, in the same fractional-seconds format the ethrpc
// client parses. Jitter matters — a thundering herd told "0.1" to the
// millisecond would return as a thundering herd.
func retryAfterSeconds() string {
	return fmt.Sprintf("%.3f", 0.05+rand.Float64()*0.1)
}

// Handler returns the router's HTTP surface:
//
//	POST /score         — routed scoring, wire-identical to a replica's /score
//	POST /score/tx      — routed transaction scoring, keyed by callee bytecode
//	GET  /healthz       — role=router, replica set, ring + routing counters
//	GET  /readyz        — readiness (200 once constructed; the router is stateless)
//	GET  /metrics       — phishinghook_cluster_* Prometheus series
//	POST /admin/promote — rolling promote across the ring, readiness-gated
//	POST /admin/reload  — rolling reload across the ring, readiness-gated
//	GET  /admin/cluster — per-replica champion/readiness survey
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/score", rt.handleScore)
	mux.HandleFunc("/score/tx", rt.handleTxScore)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{
			"status":         "ok",
			"role":           "router",
			"replicas":       rt.ring.Replicas(),
			"vnodes":         rt.ring.Vnodes(),
			"cluster":        rt.Stats(),
			"uptime_seconds": time.Since(rt.started).Seconds(),
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"ready": true, "role": "router"})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		rt.writeMetrics(w)
	})
	mux.HandleFunc("/admin/promote", func(w http.ResponseWriter, r *http.Request) {
		if !httpapi.Only(w, r, http.MethodPost) {
			return
		}
		rep, err := rt.RollingPromote(r.Context())
		if err != nil {
			httpapi.WriteJSON(w, http.StatusBadGateway, map[string]any{"error": err.Error(), "rolling": rep})
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"rolling": rep})
	})
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if !httpapi.Only(w, r, http.MethodPost) {
			return
		}
		rep, err := rt.RollingReload(r.Context())
		if err != nil {
			httpapi.WriteJSON(w, http.StatusBadGateway, map[string]any{"error": err.Error(), "rolling": rep})
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"rolling": rep})
	})
	mux.HandleFunc("/admin/cluster", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"replicas": rt.Survey(r.Context())})
	})
	return mux
}

func (rt *Router) handleScore(w http.ResponseWriter, r *http.Request) {
	if !httpapi.Only(w, r, http.MethodPost) {
		return
	}
	rt.requests.Add(1)
	b, ok := httpapi.ReadBatch(w, r)
	if !ok {
		return
	}
	rt.answer(w, len(b.Codes), "bytecodes", b.Single, func() ([]httpapi.Verdict, error) {
		return rt.route(r.Context(), b.Codes, b.Hexes)
	})
}

func (rt *Router) handleTxScore(w http.ResponseWriter, r *http.Request) {
	if !httpapi.Only(w, r, http.MethodPost) {
		return
	}
	rt.requests.Add(1)
	b, ok := httpapi.ReadTxBatch(w, r)
	if !ok {
		return
	}
	rt.answer(w, len(b.Txs), "items", b.Single, func() ([]httpapi.Verdict, error) {
		codes := make([][]byte, len(b.Txs))
		for i, tx := range b.Txs {
			codes[i] = tx.Code
		}
		return rt.routeTx(r.Context(), b.Items, codes)
	})
}

// answer admits n items, routes them with do and answers the verdicts, or
// 502 when routing failed. Admission control: items beyond MaxPending are
// refused with 429 and a jittered Retry-After — a typed backpressure signal
// clients (and this router's own plane, when stacked) already know how to
// honor — never an undifferentiated 503 or an unbounded pileup.
func (rt *Router) answer(w http.ResponseWriter, n int, noun string, single bool, do func() ([]httpapi.Verdict, error)) {
	if rt.pending.Add(int64(n)) > int64(rt.cfg.MaxPending) {
		rt.pending.Add(-int64(n))
		rt.rejected.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds())
		httpapi.Error(w, http.StatusTooManyRequests, "router saturated: %d %s pending (max %d)", rt.pending.Load(), noun, rt.cfg.MaxPending)
		return
	}
	defer rt.pending.Add(-int64(n))
	t0 := time.Now()
	verdicts, err := do()
	if err != nil {
		httpapi.Error(w, http.StatusBadGateway, "route: %v", err)
		return
	}
	httpapi.WriteVerdicts(w, verdicts, single, t0)
}

// writeMetrics renders the phishinghook_cluster_* Prometheus series.
func (rt *Router) writeMetrics(w http.ResponseWriter) {
	var e httpapi.Exposition
	s := rt.Stats()
	e.Metric("phishinghook_cluster_uptime_seconds", "Seconds since the router started.", "gauge", time.Since(rt.started).Seconds())
	e.Metric("phishinghook_cluster_replicas", "Replicas in the ring.", "gauge", float64(len(s.Replicas)))
	e.Metric("phishinghook_cluster_requests_total", "Score requests accepted by the router.", "counter", float64(s.Requests))
	e.Metric("phishinghook_cluster_scores_total", "Bytecodes routed to a successful verdict.", "counter", float64(s.Scored))
	e.Metric("phishinghook_cluster_rejected_total", "Requests refused with 429 at admission.", "counter", float64(s.Rejected))
	e.Metric("phishinghook_cluster_rehash_total", "Sub-batches served by a ring neighbor instead of the key owner.", "counter", float64(s.Rehashes))
	e.Metric("phishinghook_cluster_errors_total", "Sub-batches failed after all retries.", "counter", float64(s.Errors))
	e.Metric("phishinghook_cluster_pending", "Bytecodes admitted and awaiting verdicts.", "gauge", float64(s.Pending))
	e.Metric("phishinghook_cluster_watchdog_ejections_total", "Hung-replica watchdog demotions.", "counter", float64(s.Ejections))
	e.Metric("phishinghook_cluster_degraded_tx_total", "Tx verdicts answered by the code-only fallback.", "counter", float64(s.Degraded))
	series := func(name, help, typ string, value func(ethrpc.EndpointStats) float64) {
		e.Family(name, help, typ)
		for _, ep := range s.Replicas {
			e.Sample(name, "replica", ep.URL, value(ep))
		}
	}
	series("phishinghook_cluster_replica_requests_total", "Sub-batches attempted per replica.", "counter",
		func(ep ethrpc.EndpointStats) float64 { return float64(ep.Requests) })
	series("phishinghook_cluster_replica_successes_total", "Sub-batches answered per replica.", "counter",
		func(ep ethrpc.EndpointStats) float64 { return float64(ep.Successes) })
	series("phishinghook_cluster_replica_rate_limited_total", "429 responses per replica.", "counter",
		func(ep ethrpc.EndpointStats) float64 { return float64(ep.RateLimited) })
	series("phishinghook_cluster_replica_timeouts_total", "Timed-out exchanges per replica.", "counter",
		func(ep ethrpc.EndpointStats) float64 { return float64(ep.Timeouts) })
	series("phishinghook_cluster_replica_failures_total", "Other transport/server faults per replica.", "counter",
		func(ep ethrpc.EndpointStats) float64 { return float64(ep.Failures) })
	series("phishinghook_cluster_replica_hedges_total", "Hedged (raced) sub-batches per replica.", "counter",
		func(ep ethrpc.EndpointStats) float64 { return float64(ep.Hedges) })
	series("phishinghook_cluster_replica_limit", "Current AIMD concurrency window per replica.", "gauge",
		func(ep ethrpc.EndpointStats) float64 { return ep.Limit })
	series("phishinghook_cluster_replica_inflight", "Sub-batches currently charged against the window.", "gauge",
		func(ep ethrpc.EndpointStats) float64 { return float64(ep.Inflight) })
	series("phishinghook_cluster_replica_health", "Success EWMA per replica.", "gauge",
		func(ep ethrpc.EndpointStats) float64 { return ep.Health })
	series("phishinghook_cluster_replica_breaker_trips_total", "Circuit-breaker openings per replica.", "counter",
		func(ep ethrpc.EndpointStats) float64 { return float64(ep.BreakerTrips) })
	e.Family("phishinghook_cluster_ring_vnodes", "Virtual nodes per replica.", "gauge")
	for _, name := range rt.ring.Replicas() {
		e.Sample("phishinghook_cluster_ring_vnodes", "replica", name, rt.ring.Vnodes())
	}
	e.Family("phishinghook_cluster_ring_keyspace_fraction", "Share of the hash keyspace owned per replica.", "gauge")
	for i, name := range rt.ring.Replicas() {
		e.Sample("phishinghook_cluster_ring_keyspace_fraction", "replica", name, rt.ring.OwnedFraction(i))
	}
	e.Serve(w)
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/evm"
)

// Wire mirrors of the replica's /score JSON (serve.go). The router speaks
// the identical format on both faces, so any /score client can point at a
// router instead of a single replica without changing a byte.
type scoreRequest struct {
	Bytecode  string   `json:"bytecode,omitempty"`
	Bytecodes []string `json:"bytecodes,omitempty"`
}

// Verdict is the wire form of one scoring decision as served by a replica.
// The modality fields are populated only on /score/tx verdicts.
type Verdict struct {
	Label        string  `json:"label"`
	Phishing     bool    `json:"phishing"`
	Confidence   float64 `json:"confidence"`
	Model        string  `json:"model"`
	ModelVersion string  `json:"model_version,omitempty"`
	Modality     string  `json:"modality,omitempty"`
	PayloadProb  float64 `json:"payload_prob,omitempty"`
	CodeProb     float64 `json:"code_prob,omitempty"`
}

// TxScoreItem is one transaction on the /score/tx wire: hex calldata plus
// (optionally) the callee's hex bytecode. Mirrors serve.go's TxScoreItem.
type TxScoreItem struct {
	Calldata string `json:"calldata,omitempty"`
	Code     string `json:"code,omitempty"`
}

type txScoreRequest struct {
	Tx  *TxScoreItem  `json:"tx,omitempty"`
	Txs []TxScoreItem `json:"txs,omitempty"`
}

type scoreResponse struct {
	Verdict   *Verdict  `json:"verdict,omitempty"`
	Verdicts  []Verdict `json:"verdicts"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Kind is a machine-readable tag on typed policy rejections (e.g.
	// "bytecode_too_large"); empty — and omitted — on ordinary errors.
	Kind string `json:"kind,omitempty"`
}

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
	// OwnerBonus is the scheduling-score bonus keeping keys on their hash
	// owner (default 0.25; see ethrpc.WithPlaneOwnerAffinity).
	OwnerBonus float64
	// ReadyTimeout bounds how long a rolling promote waits for one replica
	// to report ready again after a reload/promote step (default 15s).
	ReadyTimeout time.Duration
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
	// DisableTxFallback turns off the code-only degraded mode on /score/tx.
	// By default a tx sub-batch whose fused scoring fails on every candidate
	// (the calldata half faulting replica-side) is re-answered from the
	// callee bytecodes alone via /score — alerts keep flowing on code
	// evidence, with PayloadProb reported as zero, until the fused path
	// recovers.
	DisableTxFallback bool
	// HTTPClient substitutes the transport (tests). Timeout still applies
	// per exchange via context.
	HTTPClient *http.Client
}

// Router is the stateless scoring front door: it owns no model and no
// cache, only the ring, the plane scheduler and counters — N routers can
// front the same replica set.
type Router struct {
	cfg   Config
	ring  *Ring
	plane *ethrpc.Plane
	httpc *http.Client

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
	if cfg.OwnerBonus <= 0 {
		cfg.OwnerBonus = 0.25
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 15 * time.Second
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
		ethrpc.WithPlaneOwnerAffinity(cfg.OwnerBonus),
	}
	if cfg.MaxConcurrency > 0 {
		planeOpts = append(planeOpts, ethrpc.WithPlaneMaxConcurrency(cfg.MaxConcurrency))
	}
	plane, err := ethrpc.NewPlane(cfg.Replicas, planeOpts...)
	if err != nil {
		return nil, err
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{Transport: ethrpc.NewPooledTransport()}
	}
	return &Router{
		cfg:     cfg,
		ring:    ring,
		plane:   plane,
		httpc:   httpc,
		started: time.Now(),
		wstreak: make(map[string]int),
		wuntil:  make(map[string]time.Time),
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

// group is one sub-batch bound for a single hash neighborhood.
type group struct {
	cands []*ethrpc.Node // candidate nodes, owner first
	idx   []int          // positions in the original request
	hexes []string       // forwarded bytecodes
}

// RouteBatch scores raw bytecodes across the ring and returns verdicts
// aligned with codes. It is the Go-level routing core under the HTTP
// handler; errors are all-or-nothing per call.
func (rt *Router) RouteBatch(ctx context.Context, codes [][]byte) ([]Verdict, error) {
	hexes := make([]string, len(codes))
	for i, c := range codes {
		hexes[i] = evm.EncodeHex(c)
	}
	return rt.route(ctx, codes, hexes)
}

// route fans one decoded batch out by hash neighborhood and reassembles the
// verdicts in request order.
func (rt *Router) route(ctx context.Context, codes [][]byte, hexes []string) ([]Verdict, error) {
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
		g.hexes = append(g.hexes, hexes[i])
	}

	out := make([]Verdict, len(codes))
	var wg sync.WaitGroup
	errCh := make(chan error, len(groups))
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			owner := g.cands[0]
			verdicts, err := ethrpc.PlaneDo(ctx, rt.plane, g.cands, func(ctx context.Context, n *ethrpc.Node) ([]Verdict, error) {
				vs, err := rt.post(ctx, n.Name(), g.hexes)
				rt.watchdogObserve(n.Name(), err)
				if err == nil && n != owner {
					rt.rehashes.Add(1)
				}
				return vs, err
			})
			if err != nil {
				rt.errored.Add(1)
				errCh <- fmt.Errorf("cluster: sub-batch of %d via %s: %w", len(g.hexes), owner.Name(), err)
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

// txGroup is one transaction sub-batch bound for a single hash neighborhood.
type txGroup struct {
	cands []*ethrpc.Node // candidate nodes, owner first
	idx   []int          // positions in the original request
	items []TxScoreItem  // forwarded transactions
}

// RouteTxBatch routes transactions (hex calldata + callee bytecode) across
// the ring and returns fused verdicts aligned with items. Each tx is keyed by
// its callee bytecode's SHA-256 — the same key /score shards on — so a tx
// lands on the replica whose code-side digest cache its callee already
// warmed. EOA callees (empty code) all share KeyOf(nil) and pin to one
// neighborhood, which is fine: their code side is a constant zero and the
// payload cache still dedups by calldata digest.
func (rt *Router) RouteTxBatch(ctx context.Context, items []TxScoreItem) ([]Verdict, error) {
	keys := make([][32]byte, len(items))
	for i, it := range items {
		code, err := evm.DecodeHex(it.Code)
		if err != nil {
			return nil, fmt.Errorf("cluster: tx %d code: %w", i, err)
		}
		keys[i] = KeyOf(code)
	}
	return rt.routeTx(ctx, items, keys)
}

// routeTx fans one transaction batch out by callee-code hash neighborhood
// and reassembles the verdicts in request order.
func (rt *Router) routeTx(ctx context.Context, items []TxScoreItem, keys [][32]byte) ([]Verdict, error) {
	nodes := rt.plane.Nodes()
	groups := make(map[string]*txGroup)
	for i, key := range keys {
		hood := rt.ring.Neighborhood(key, rt.cfg.Neighborhood)
		gk := fmt.Sprint(hood)
		g, ok := groups[gk]
		if !ok {
			g = &txGroup{cands: make([]*ethrpc.Node, len(hood))}
			for j, ri := range hood {
				g.cands[j] = nodes[ri]
			}
			g.cands = rt.demoteEjected(g.cands)
			groups[gk] = g
		}
		g.idx = append(g.idx, i)
		g.items = append(g.items, items[i])
	}

	out := make([]Verdict, len(items))
	var wg sync.WaitGroup
	errCh := make(chan error, len(groups))
	for _, g := range groups {
		wg.Add(1)
		go func(g *txGroup) {
			defer wg.Done()
			owner := g.cands[0]
			verdicts, err := ethrpc.PlaneDo(ctx, rt.plane, g.cands, func(ctx context.Context, n *ethrpc.Node) ([]Verdict, error) {
				vs, err := rt.postTx(ctx, n.Name(), g.items)
				rt.watchdogObserve(n.Name(), err)
				if err == nil && n != owner {
					rt.rehashes.Add(1)
				}
				return vs, err
			})
			if err != nil && !rt.cfg.DisableTxFallback && ctx.Err() == nil {
				if fvs, ferr := rt.txCodeFallback(ctx, g.items); ferr == nil {
					rt.degraded.Add(uint64(len(fvs)))
					verdicts, err = fvs, nil
				}
			}
			if err != nil {
				rt.errored.Add(1)
				errCh <- fmt.Errorf("cluster: tx sub-batch of %d via %s: %w", len(g.items), owner.Name(), err)
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

// txCodeFallback re-answers a failed /score/tx sub-batch from the code half
// alone: the callee bytecodes go through the ordinary /score path (which may
// land on any healthy replica) and the payload probability is reported as
// zero. EOA callees — no code to judge, no calldata scorer reachable —
// degrade to an explicit benign zero-confidence verdict. The point is that a
// replica-side calldata-model fault does not silence code-evidenced alerts;
// fused confidence returns when /score/tx recovers.
func (rt *Router) txCodeFallback(ctx context.Context, items []TxScoreItem) ([]Verdict, error) {
	out := make([]Verdict, len(items))
	var codes [][]byte
	var hexes []string
	var pos []int
	for i, it := range items {
		code, err := evm.DecodeHex(it.Code)
		if err != nil || len(code) == 0 {
			out[i] = Verdict{Label: "benign", Modality: "tx"}
			continue
		}
		codes = append(codes, code)
		hexes = append(hexes, it.Code)
		pos = append(pos, i)
	}
	if len(codes) > 0 {
		vs, err := rt.route(ctx, codes, hexes)
		if err != nil {
			return nil, err
		}
		for j, v := range vs {
			out[pos[j]] = Verdict{
				Label:        v.Label,
				Phishing:     v.Phishing,
				Confidence:   v.Confidence,
				Model:        v.Model,
				ModelVersion: v.ModelVersion,
				Modality:     "tx",
				CodeProb:     v.Confidence,
			}
		}
	}
	return out, nil
}

// postTx runs one /score/tx exchange against a replica with the same outcome
// classification as post.
func (rt *Router) postTx(ctx context.Context, base string, items []TxScoreItem) ([]Verdict, error) {
	body, err := json.Marshal(txScoreRequest{Txs: items})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/score/tx", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.httpc.Do(req)
	if err != nil {
		if ctx.Err() == context.DeadlineExceeded {
			return nil, ethrpc.MarkTransient(context.DeadlineExceeded)
		}
		return nil, ethrpc.MarkTransient(fmt.Errorf("transport: %w", err))
	}
	defer ethrpc.CloseBody(resp)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		ra := ethrpc.ParseRetryAfter(resp.Header.Get("Retry-After"))
		return nil, ethrpc.MarkTransient(&ethrpc.RateLimitError{RetryAfter: ra})
	case resp.StatusCode >= 500:
		return nil, ethrpc.MarkTransient(fmt.Errorf("replica status %d", resp.StatusCode))
	case resp.StatusCode != http.StatusOK:
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("replica status %d: %s", resp.StatusCode, e.Error)
	}
	var sr scoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, ethrpc.MarkTransient(fmt.Errorf("torn response: %w", err))
	}
	if len(sr.Verdicts) != len(items) {
		return nil, ethrpc.MarkTransient(fmt.Errorf("replica answered %d verdicts for %d txs", len(sr.Verdicts), len(items)))
	}
	return sr.Verdicts, nil
}

// post runs one /score exchange against a replica, classifying the outcome
// the way the JSON-RPC client does: 429 surfaces as a RateLimitError (the
// plane's congestion signal, Retry-After attached), transport faults, 5xx
// and torn responses as transient (retry rotates to a ring neighbor), and
// anything else as authoritative.
func (rt *Router) post(ctx context.Context, base string, hexes []string) ([]Verdict, error) {
	body, err := json.Marshal(scoreRequest{Bytecodes: hexes})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/score", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.httpc.Do(req)
	if err != nil {
		if ctx.Err() == context.DeadlineExceeded {
			return nil, ethrpc.MarkTransient(context.DeadlineExceeded)
		}
		return nil, ethrpc.MarkTransient(fmt.Errorf("transport: %w", err))
	}
	defer ethrpc.CloseBody(resp)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		ra := ethrpc.ParseRetryAfter(resp.Header.Get("Retry-After"))
		return nil, ethrpc.MarkTransient(&ethrpc.RateLimitError{RetryAfter: ra})
	case resp.StatusCode >= 500:
		return nil, ethrpc.MarkTransient(fmt.Errorf("replica status %d", resp.StatusCode))
	case resp.StatusCode != http.StatusOK:
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("replica status %d: %s", resp.StatusCode, e.Error)
	}
	var sr scoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, ethrpc.MarkTransient(fmt.Errorf("torn response: %w", err))
	}
	if len(sr.Verdicts) != len(hexes) {
		return nil, ethrpc.MarkTransient(fmt.Errorf("replica answered %d verdicts for %d bytecodes", len(sr.Verdicts), len(hexes)))
	}
	return sr.Verdicts, nil
}

// Same request bounds as the replica-side handler (serve.go): the router
// enforces them before fan-out so an oversized request is refused in one
// place. The per-item caps mirror serve.go's input hardening — EIP-170 for
// deployed bytecode, a work bound for calldata — so a hostile item never
// even reaches a replica.
const (
	maxScoreBatch      = 1024
	maxScoreBodyBytes  = 64 << 20
	maxScoreItemBytes  = 24576
	maxTxCalldataBytes = 128 << 10
)

const (
	errKindBytecodeTooLarge = "bytecode_too_large"
	errKindCalldataTooLarge = "calldata_too_large"
)

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
		writeJSON(w, http.StatusOK, map[string]any{
			"status":         "ok",
			"role":           "router",
			"replicas":       rt.ring.Replicas(),
			"vnodes":         rt.ring.Vnodes(),
			"cluster":        rt.Stats(),
			"uptime_seconds": time.Since(rt.started).Seconds(),
		})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "role": "router"})
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		rt.writeMetrics(w)
	})
	mux.HandleFunc("/admin/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		rep, err := rt.RollingPromote(r.Context())
		if err != nil {
			writeJSON(w, http.StatusBadGateway, map[string]any{"error": err.Error(), "rolling": rep})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"rolling": rep})
	})
	mux.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		rep, err := rt.RollingReload(r.Context())
		if err != nil {
			writeJSON(w, http.StatusBadGateway, map[string]any{"error": err.Error(), "rolling": rep})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"rolling": rep})
	})
	mux.HandleFunc("/admin/cluster", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"replicas": rt.Survey(r.Context())})
	})
	return mux
}

func (rt *Router) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	rt.requests.Add(1)
	var req scoreRequest
	body := http.MaxBytesReader(w, r.Body, maxScoreBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad JSON: %v", err)
		return
	}
	hexes := req.Bytecodes
	hasSingle := req.Bytecode != ""
	if hasSingle {
		hexes = append([]string{req.Bytecode}, hexes...)
	}
	if len(hexes) == 0 {
		writeError(w, http.StatusBadRequest, "no bytecode in request")
		return
	}
	if len(hexes) > maxScoreBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds limit %d", len(hexes), maxScoreBatch)
		return
	}
	codes := make([][]byte, len(hexes))
	for i, h := range hexes {
		code, err := evm.DecodeHex(h)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bytecode %d: %v", i, err)
			return
		}
		if len(code) == 0 {
			writeError(w, http.StatusBadRequest, "bytecode %d: empty", i)
			return
		}
		if len(code) > maxScoreItemBytes {
			writeErrorKind(w, http.StatusRequestEntityTooLarge, errKindBytecodeTooLarge,
				"bytecode %d: %d bytes exceeds the EIP-170 deployed-code cap %d", i, len(code), maxScoreItemBytes)
			return
		}
		codes[i] = code
	}

	// Admission control: a full queue answers 429 + jittered Retry-After —
	// a typed backpressure signal clients (and this router's own plane,
	// when stacked) already know how to honor — never an undifferentiated
	// 503 or an unbounded pileup.
	n := int64(len(codes))
	if rt.pending.Add(n) > int64(rt.cfg.MaxPending) {
		rt.pending.Add(-n)
		rt.rejected.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds())
		writeError(w, http.StatusTooManyRequests, "router saturated: %d bytecodes pending (max %d)", rt.pending.Load(), rt.cfg.MaxPending)
		return
	}
	defer rt.pending.Add(-n)

	t0 := time.Now()
	verdicts, err := rt.route(r.Context(), codes, hexes)
	if err != nil {
		writeError(w, http.StatusBadGateway, "route: %v", err)
		return
	}
	resp := scoreResponse{
		Verdicts:  verdicts,
		ElapsedMS: float64(time.Since(t0).Microseconds()) / 1000,
	}
	if hasSingle {
		resp.Verdict = &resp.Verdicts[0]
	}
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleTxScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	rt.requests.Add(1)
	var req txScoreRequest
	body := http.MaxBytesReader(w, r.Body, maxScoreBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "bad JSON: %v", err)
		return
	}
	items := req.Txs
	hasSingle := req.Tx != nil
	if hasSingle {
		items = append([]TxScoreItem{*req.Tx}, items...)
	}
	if len(items) == 0 {
		writeError(w, http.StatusBadRequest, "no transaction in request")
		return
	}
	if len(items) > maxScoreBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds limit %d", len(items), maxScoreBatch)
		return
	}
	keys := make([][32]byte, len(items))
	for i, it := range items {
		// Either side may be empty (EOA callee / plain transfer); both
		// hexes still have to parse before fan-out.
		calldata, err := evm.DecodeHex(it.Calldata)
		if err != nil {
			writeError(w, http.StatusBadRequest, "tx %d calldata: %v", i, err)
			return
		}
		if len(calldata) > maxTxCalldataBytes {
			writeErrorKind(w, http.StatusRequestEntityTooLarge, errKindCalldataTooLarge,
				"tx %d: calldata of %d bytes exceeds cap %d", i, len(calldata), maxTxCalldataBytes)
			return
		}
		code, err := evm.DecodeHex(it.Code)
		if err != nil {
			writeError(w, http.StatusBadRequest, "tx %d code: %v", i, err)
			return
		}
		if len(code) > maxScoreItemBytes {
			writeErrorKind(w, http.StatusRequestEntityTooLarge, errKindBytecodeTooLarge,
				"tx %d: code of %d bytes exceeds the EIP-170 deployed-code cap %d", i, len(code), maxScoreItemBytes)
			return
		}
		keys[i] = KeyOf(code)
	}

	// Same admission control as /score: a full queue answers 429 + jittered
	// Retry-After rather than queuing unboundedly.
	n := int64(len(items))
	if rt.pending.Add(n) > int64(rt.cfg.MaxPending) {
		rt.pending.Add(-n)
		rt.rejected.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds())
		writeError(w, http.StatusTooManyRequests, "router saturated: %d items pending (max %d)", rt.pending.Load(), rt.cfg.MaxPending)
		return
	}
	defer rt.pending.Add(-n)

	t0 := time.Now()
	verdicts, err := rt.routeTx(r.Context(), items, keys)
	if err != nil {
		writeError(w, http.StatusBadGateway, "route: %v", err)
		return
	}
	resp := scoreResponse{
		Verdicts:  verdicts,
		ElapsedMS: float64(time.Since(t0).Microseconds()) / 1000,
	}
	if hasSingle {
		resp.Verdict = &resp.Verdicts[0]
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeMetrics renders the phishinghook_cluster_* Prometheus series by hand
// (same stdlib-only exposition as serve.go).
func (rt *Router) writeMetrics(w http.ResponseWriter) {
	var b strings.Builder
	metric := func(name, help, typ string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	s := rt.Stats()
	metric("phishinghook_cluster_uptime_seconds", "Seconds since the router started.", "gauge", time.Since(rt.started).Seconds())
	metric("phishinghook_cluster_replicas", "Replicas in the ring.", "gauge", float64(len(s.Replicas)))
	metric("phishinghook_cluster_requests_total", "Score requests accepted by the router.", "counter", float64(s.Requests))
	metric("phishinghook_cluster_scores_total", "Bytecodes routed to a successful verdict.", "counter", float64(s.Scored))
	metric("phishinghook_cluster_rejected_total", "Requests refused with 429 at admission.", "counter", float64(s.Rejected))
	metric("phishinghook_cluster_rehash_total", "Sub-batches served by a ring neighbor instead of the key owner.", "counter", float64(s.Rehashes))
	metric("phishinghook_cluster_errors_total", "Sub-batches failed after all retries.", "counter", float64(s.Errors))
	metric("phishinghook_cluster_pending", "Bytecodes admitted and awaiting verdicts.", "gauge", float64(s.Pending))
	metric("phishinghook_cluster_watchdog_ejections_total", "Hung-replica watchdog demotions.", "counter", float64(s.Ejections))
	metric("phishinghook_cluster_degraded_tx_total", "Tx verdicts answered by the code-only fallback.", "counter", float64(s.Degraded))
	series := func(name, help, typ string, value func(ethrpc.EndpointStats) float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, ep := range s.Replicas {
			fmt.Fprintf(&b, "%s{replica=%q} %g\n", name, ep.URL, value(ep))
		}
	}
	series("phishinghook_cluster_replica_requests_total", "Sub-batches attempted per replica.", "counter",
		func(e ethrpc.EndpointStats) float64 { return float64(e.Requests) })
	series("phishinghook_cluster_replica_successes_total", "Sub-batches answered per replica.", "counter",
		func(e ethrpc.EndpointStats) float64 { return float64(e.Successes) })
	series("phishinghook_cluster_replica_rate_limited_total", "429 responses per replica.", "counter",
		func(e ethrpc.EndpointStats) float64 { return float64(e.RateLimited) })
	series("phishinghook_cluster_replica_timeouts_total", "Timed-out exchanges per replica.", "counter",
		func(e ethrpc.EndpointStats) float64 { return float64(e.Timeouts) })
	series("phishinghook_cluster_replica_failures_total", "Other transport/server faults per replica.", "counter",
		func(e ethrpc.EndpointStats) float64 { return float64(e.Failures) })
	series("phishinghook_cluster_replica_hedges_total", "Hedged (raced) sub-batches per replica.", "counter",
		func(e ethrpc.EndpointStats) float64 { return float64(e.Hedges) })
	series("phishinghook_cluster_replica_limit", "Current AIMD concurrency window per replica.", "gauge",
		func(e ethrpc.EndpointStats) float64 { return e.Limit })
	series("phishinghook_cluster_replica_inflight", "Sub-batches currently charged against the window.", "gauge",
		func(e ethrpc.EndpointStats) float64 { return float64(e.Inflight) })
	series("phishinghook_cluster_replica_health", "Success EWMA per replica.", "gauge",
		func(e ethrpc.EndpointStats) float64 { return e.Health })
	series("phishinghook_cluster_replica_breaker_trips_total", "Circuit-breaker openings per replica.", "counter",
		func(e ethrpc.EndpointStats) float64 { return float64(e.BreakerTrips) })
	fmt.Fprintf(&b, "# HELP phishinghook_cluster_ring_vnodes Virtual nodes per replica.\n# TYPE phishinghook_cluster_ring_vnodes gauge\n")
	for _, name := range rt.ring.Replicas() {
		fmt.Fprintf(&b, "phishinghook_cluster_ring_vnodes{replica=%q} %d\n", name, rt.ring.Vnodes())
	}
	fmt.Fprintf(&b, "# HELP phishinghook_cluster_ring_keyspace_fraction Share of the hash keyspace owned per replica.\n# TYPE phishinghook_cluster_ring_keyspace_fraction gauge\n")
	for i, name := range rt.ring.Replicas() {
		fmt.Fprintf(&b, "phishinghook_cluster_ring_keyspace_fraction{replica=%q} %g\n", name, rt.ring.OwnedFraction(i))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeErrorKind is writeError plus the machine-readable kind tag.
func writeErrorKind(w http.ResponseWriter, status int, kind, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...), Kind: kind})
}

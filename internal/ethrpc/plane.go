package ethrpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// EndpointStats is one node's scheduler + throughput snapshot. The URL
// field carries the node name (an RPC endpoint for the MultiClient, a
// replica base URL for the cluster router).
type EndpointStats struct {
	URL         string  `json:"url"`
	Requests    uint64  `json:"requests"`
	Successes   uint64  `json:"successes"`
	RateLimited uint64  `json:"rate_limited"`
	Timeouts    uint64  `json:"timeouts"`
	Failures    uint64  `json:"failures"`
	Hedges      uint64  `json:"hedges"`
	Limit       float64 `json:"limit"`    // current AIMD window
	Inflight    int     `json:"inflight"` // calls currently charged against the window
	Health      float64 `json:"health"`   // success EWMA
	// BreakerTrips counts hard circuit-breaker openings (malformed-response
	// or transport-fault streaks); BreakerOpen reports whether the node is
	// currently excluded from scheduling.
	BreakerTrips uint64 `json:"breaker_trips,omitempty"`
	BreakerOpen  bool   `json:"breaker_open,omitempty"`
}

// Plane is the endpoint-generic adaptive scheduler underneath every fan-out
// surface in the system: per-node AIMD concurrency windows (grow additively
// on success, halve on 429/timeout), a health EWMA steering each unit of
// work toward the node most likely to answer, hedged re-issue of
// stragglers, and retries (through Retry) that rotate nodes on transient
// faults. MultiClient schedules JSON-RPC exchanges through it; the scoring
// cluster router schedules HTTP /score calls across replicas through the
// same machinery — a "node" is just a name plus scheduler state, and the
// caller supplies the exchange.
//
// Safe for concurrent use.
type Plane struct {
	nodes           []*Node
	retry           RetryPolicy
	hedge           time.Duration
	maxLimit        float64
	ownerBonus      float64
	breakerStreak   int
	breakerCooldown time.Duration

	mu      sync.Mutex
	waiters int
	waitCh  chan struct{}
}

// Node is one schedulable upstream plus its AIMD window, health EWMA and
// outcome counters.
type Node struct {
	name  string
	index int

	// Scheduler state, guarded by Plane.mu.
	limit     float64 // AIMD concurrency window
	inflight  int
	health    float64 // success EWMA in (0, 1]
	lastHalve time.Time
	// Circuit breaker: failStreak counts consecutive hard failures
	// (malformed responses, refused connections — the classFailure outcomes
	// AIMD's congestion control never sees). At the plane's streak threshold
	// the breaker trips: breakerUntil excludes the node from scheduling
	// until the cooldown passes, after which a single half-open probe
	// decides between closing it (success) and re-arming it (failure).
	failStreak   int
	breakerUntil time.Time

	// Observability counters.
	requests     atomic.Uint64
	successes    atomic.Uint64
	rateLimited  atomic.Uint64
	timeouts     atomic.Uint64
	failures     atomic.Uint64
	hedges       atomic.Uint64
	breakerTrips atomic.Uint64
}

// Name returns the node's identity (an endpoint URL, a replica base URL).
func (n *Node) Name() string { return n.name }

// Index returns the node's position in the plane's construction order — the
// stable key callers use to map a node back onto their own per-upstream
// state (a JSON-RPC client, an admin URL).
func (n *Node) Index() int { return n.index }

// breakerBlockedLocked reports whether the breaker excludes the node from
// scheduling right now: open until the cooldown passes, then half-open — a
// single probe admitted at a time.
func (n *Node) breakerBlockedLocked(now time.Time) bool {
	if n.breakerUntil.IsZero() {
		return false
	}
	if now.Before(n.breakerUntil) {
		return true
	}
	return n.inflight > 0
}

// PlaneOption configures a Plane.
type PlaneOption func(*Plane)

// WithPlaneRetries sets plane-level attempts per unit of work (default 4)
// and the base backoff between them (default 50ms, doubled with jitter).
// Each attempt may land on a different node.
func WithPlaneRetries(attempts int, backoff time.Duration) PlaneOption {
	return func(p *Plane) {
		if attempts > 0 {
			p.retry.Attempts = attempts
		}
		if backoff > 0 {
			p.retry.Backoff = backoff
		}
	}
}

// WithPlaneHedge re-issues a unit of work on a second node when the first
// hasn't answered within delay, taking whichever result lands first. 0 (the
// default) disables hedging.
func WithPlaneHedge(delay time.Duration) PlaneOption {
	return func(p *Plane) { p.hedge = delay }
}

// WithPlaneMaxConcurrency caps each node's AIMD window (default 64).
func WithPlaneMaxConcurrency(n int) PlaneOption {
	return func(p *Plane) {
		if n > 0 {
			p.maxLimit = float64(n)
		}
	}
}

// WithPlaneRetryAfter honors a 429's Retry-After (capped, jittered) as the
// wait before the next attempt instead of the plain exponential backoff.
// Over several endpoints the MultiClient leaves this off — its next attempt
// rotates to a different endpoint, so stalling the call for one stormed
// endpoint's penalty would idle the healthy rest of the plane — but a lone
// endpoint and the cluster router want it on: the retry has nowhere (or,
// within a small hash neighborhood, often nowhere) else to go, and the
// server has named its price.
func WithPlaneRetryAfter() PlaneOption {
	return func(p *Plane) { p.retry.RetryAfter = true }
}

// WithPlaneBreaker tunes the per-node circuit breaker: streak consecutive
// hard failures (malformed responses, refused connections — the faults AIMD
// never halves on) trip the node out of scheduling for cooldown, after which
// one half-open probe decides whether it rejoins. The default is 8 failures
// / 2s: streak 0 and cooldown 0 keep it, a negative streak disables the
// breaker. Chaos soaks shrink the cooldown toward the polling interval so
// recovery after a full blackout is bounded by polls, not by the breaker's
// re-probe timer.
func WithPlaneBreaker(streak int, cooldown time.Duration) PlaneOption {
	return func(p *Plane) {
		if streak != 0 {
			p.breakerStreak = streak
		}
		if cooldown > 0 {
			p.breakerCooldown = cooldown
		}
	}
}

// WithPlaneOwnerAffinity adds bonus to the first candidate's selection score
// when scheduling within an explicit candidate list — the consistent-hash
// router's owner preference: the key's owner holds its cache line, so it
// should win unless its health has genuinely decayed below the neighbors'.
func WithPlaneOwnerAffinity(bonus float64) PlaneOption {
	return func(p *Plane) {
		if bonus > 0 {
			p.ownerBonus = bonus
		}
	}
}

// NewPlane builds a scheduler over the given node names.
func NewPlane(names []string, opts ...PlaneOption) (*Plane, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("ethrpc: Plane needs at least one node")
	}
	p := &Plane{
		retry:           RetryPolicy{Attempts: 4, Backoff: 50 * time.Millisecond},
		maxLimit:        64,
		breakerStreak:   8,
		breakerCooldown: 2 * time.Second,
		waitCh:          make(chan struct{}),
	}
	for _, opt := range opts {
		opt(p)
	}
	for i, name := range names {
		p.nodes = append(p.nodes, &Node{
			name:   name,
			index:  i,
			limit:  aimdInitialLimit,
			health: 1,
		})
	}
	return p, nil
}

// Nodes returns the plane's nodes in construction order. Callers slice this
// to build the candidate subsets they pass to PlaneDo.
func (p *Plane) Nodes() []*Node { return p.nodes }

// Stats snapshots every node. The EndpointStats URL field carries the node
// name.
func (p *Plane) Stats() []EndpointStats {
	out := make([]EndpointStats, len(p.nodes))
	now := time.Now()
	p.mu.Lock()
	for i, n := range p.nodes {
		out[i] = EndpointStats{
			URL:          n.name,
			Requests:     n.requests.Load(),
			Successes:    n.successes.Load(),
			RateLimited:  n.rateLimited.Load(),
			Timeouts:     n.timeouts.Load(),
			Failures:     n.failures.Load(),
			Hedges:       n.hedges.Load(),
			Limit:        n.limit,
			Inflight:     n.inflight,
			Health:       n.health,
			BreakerTrips: n.breakerTrips.Load(),
			BreakerOpen:  !n.breakerUntil.IsZero() && now.Before(n.breakerUntil),
		}
	}
	p.mu.Unlock()
	return out
}

// ParseRetryAfter reads a Retry-After header value in (possibly fractional)
// seconds; HTTP-date forms and garbage parse as 0, i.e. "not stated".
func ParseRetryAfter(v string) time.Duration { return parseRetryAfter(v) }

// PlaneDo runs one unit of work through the plane: acquire a node slot
// (restricted to the `within` candidates when non-nil; nil means any node),
// run fn against it (hedged on a second candidate when configured), feed
// the outcome back into AIMD/health, and on a transient failure let Retry
// try again after a backoff, preferring another candidate. When the plane
// was built with owner affinity, within[0] is preferred as the candidate
// holding the key's cache line.
func PlaneDo[T any](ctx context.Context, p *Plane, within []*Node, fn func(context.Context, *Node) (T, error)) (T, error) {
	var avoid *Node // the node that just failed this unit of work
	return Retry(ctx, p.retry, func() (T, error) {
		v, n, err := planeTry(ctx, p, within, fn, avoid)
		avoid = n
		return v, err
	})
}

// planeTry runs one scheduled exchange, hedging a straggler when enabled.
func planeTry[T any](ctx context.Context, p *Plane, within []*Node, fn func(context.Context, *Node) (T, error), avoid *Node) (T, *Node, error) {
	var zero T
	primary, err := p.acquire(ctx, within, avoid)
	if err != nil {
		return zero, nil, err
	}
	if p.hedge <= 0 {
		v, err := planeExchange(ctx, p, primary, fn)
		return v, primary, err
	}

	type result struct {
		v   T
		err error
		n   *Node
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan result, 2)
	launch := func(n *Node) {
		go func() {
			v, err := planeExchange(cctx, p, n, fn)
			ch <- result{v, err, n}
		}()
	}
	launch(primary)
	timer := time.NewTimer(p.hedge)
	launched := 1
	var first result
	select {
	case first = <-ch:
		timer.Stop()
	case <-timer.C:
		// The primary is a straggler: race a backup on a different node if
		// one has spare capacity right now (never block waiting for it — a
		// hedge is opportunistic).
		if backup, ok := p.tryAcquire(within, primary); ok {
			backup.hedges.Add(1)
			launch(backup)
			launched++
		}
		first = <-ch
	}
	if first.err != nil && launched == 2 {
		// The faster responder failed; the other leg may still win.
		if second := <-ch; second.err == nil {
			return second.v, second.n, nil
		}
		return zero, first.n, first.err
	}
	// A success (or a lone failure): cancel the loser, which releases its
	// slot and reports a neutral cancellation on its own goroutine.
	return first.v, first.n, first.err
}

// planeExchange performs one exchange against n, then feeds the outcome
// into the scheduler and releases the slot.
func planeExchange[T any](ctx context.Context, p *Plane, n *Node, fn func(context.Context, *Node) (T, error)) (T, error) {
	n.requests.Add(1)
	v, err := fn(ctx, n)
	p.finish(n, err)
	return v, err
}

// Outcome classes for the AIMD/health update.
const (
	classOK         = iota
	classCongestion // 429 or timeout: halve the window
	classFailure    // other transport/server fault: health only
	classNeutral    // caller cancellation: not the node's fault
)

func classify(err error) int {
	switch {
	case err == nil:
		return classOK
	case errors.Is(err, context.Canceled):
		return classNeutral
	}
	var rl *RateLimitError
	if errors.As(err, &rl) {
		return classCongestion
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return classCongestion
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return classCongestion
	}
	return classFailure
}

func isRateLimit(err error) bool {
	var rl *RateLimitError
	return errors.As(err, &rl)
}

// finish counts one outcome, applies it to the node's AIMD window, health
// and breaker, then releases the concurrency slot.
func (p *Plane) finish(n *Node, err error) {
	p.mu.Lock()
	switch classify(err) {
	case classOK:
		n.successes.Add(1)
		// Additive increase: ~+1 to the window per windowful of successes.
		n.limit += 1 / n.limit
		if n.limit > p.maxLimit {
			n.limit = p.maxLimit
		}
		n.health += (1 - n.health) * healthGain
		// A success — in particular a half-open probe landing — closes the
		// breaker and zeroes the streak.
		n.failStreak = 0
		n.breakerUntil = time.Time{}
	case classCongestion:
		if errors.Is(err, context.DeadlineExceeded) || !isRateLimit(err) {
			n.timeouts.Add(1)
		} else {
			n.rateLimited.Add(1)
		}
		// Multiplicative decrease, once per congestion event. 429/timeout is
		// AIMD's domain, not the breaker's: a throttled node is alive.
		if time.Since(n.lastHalve) >= aimdHalveCooldown {
			n.limit /= 2
			if n.limit < 1 {
				n.limit = 1
			}
			n.lastHalve = time.Now()
		}
		n.health *= 1 - healthGain
	case classFailure:
		n.failures.Add(1)
		n.health *= 1 - healthGain
		n.failStreak++
		if p.breakerStreak > 0 && n.failStreak >= p.breakerStreak {
			now := time.Now()
			// Count a trip only on the closed→open (or half-open reprobe
			// failure) edge; failures draining from requests already in
			// flight when the breaker opened just extend the window.
			if n.breakerUntil.IsZero() || now.After(n.breakerUntil) {
				n.breakerTrips.Add(1)
			}
			n.breakerUntil = now.Add(p.breakerCooldown)
		}
	}
	if n.health < 0.01 {
		n.health = 0.01 // floor so a recovered node can climb back
	}
	n.inflight--
	p.wakeLocked()
	p.mu.Unlock()
}

// wakeLocked rouses acquire() waiters after capacity was freed or grown.
func (p *Plane) wakeLocked() {
	if p.waiters == 0 {
		return
	}
	close(p.waitCh)
	p.waitCh = make(chan struct{})
}

// acquire blocks until some candidate has AIMD capacity and charges a slot,
// preferring healthy nodes and, when possible, one other than avoid.
func (p *Plane) acquire(ctx context.Context, within []*Node, avoid *Node) (*Node, error) {
	p.mu.Lock()
	for {
		n := p.pickLocked(within, avoid)
		if n == nil && avoid != nil {
			n = p.pickLocked(within, nil) // only the avoided node has capacity
		}
		if n != nil {
			n.inflight++
			p.mu.Unlock()
			return n, nil
		}
		// When every candidate is breaker-open nothing is in flight to wake
		// us, so also wait out the soonest cooldown expiry.
		var reopen <-chan time.Time
		if until, ok := p.soonestReopenLocked(within); ok {
			d := time.Until(until)
			if d < 0 {
				d = 0
			}
			reopen = time.After(d)
		}
		p.waiters++
		ch := p.waitCh
		p.mu.Unlock()
		select {
		case <-ctx.Done():
			p.mu.Lock()
			p.waiters--
			p.mu.Unlock()
			return nil, ctx.Err()
		case <-ch:
		case <-reopen:
		}
		p.mu.Lock()
		p.waiters--
	}
}

// soonestReopenLocked returns the earliest breaker cooldown expiry among the
// candidates, ok=false when no breaker is pending reopen.
func (p *Plane) soonestReopenLocked(within []*Node) (time.Time, bool) {
	cands := within
	if cands == nil {
		cands = p.nodes
	}
	var soonest time.Time
	now := time.Now()
	for _, n := range cands {
		if n.breakerUntil.IsZero() || !now.Before(n.breakerUntil) {
			continue
		}
		if soonest.IsZero() || n.breakerUntil.Before(soonest) {
			soonest = n.breakerUntil
		}
	}
	return soonest, !soonest.IsZero()
}

// tryAcquire charges a slot on the best candidate other than avoid without
// blocking; ok=false when nothing has spare capacity.
func (p *Plane) tryAcquire(within []*Node, avoid *Node) (*Node, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.pickLocked(within, avoid)
	if n == nil {
		return nil, false
	}
	n.inflight++
	return n, true
}

// ownerStickyFloor is the health below which an affinity owner stops being
// sticky: above it a full window means "wait for the owner" (a diverted
// request is a guaranteed cold cache miss on the neighbor); below it the
// owner is presumed dead or throttled and its ring neighbors take over.
const ownerStickyFloor = 0.5

// pickLocked selects the node to schedule onto: the best health among the
// candidates with spare window capacity, spare fraction breaking near-ties
// so load spreads instead of piling onto one node, and (when configured)
// an affinity bonus keeping keys on their hash owner.
func (p *Plane) pickLocked(within []*Node, avoid *Node) *Node {
	cands := within
	if cands == nil {
		cands = p.nodes
	}
	now := time.Now()
	// Sticky owner: with affinity configured, a healthy owner is the only
	// choice — callers block until its window frees rather than spilling
	// the key onto a cache-cold neighbor. Neighbors become eligible the
	// moment the owner decays below the health floor (kill, 429 storm),
	// trips its breaker, or is explicitly avoided (a retry after the owner
	// just failed, or a hedge racing a straggler).
	if within != nil && p.ownerBonus > 0 {
		owner := cands[0]
		if owner != avoid && owner.health >= ownerStickyFloor && !owner.breakerBlockedLocked(now) {
			if owner.inflight < int(owner.limit) {
				return owner
			}
			return nil
		}
	}
	var best *Node
	var bestScore float64
	for i, n := range cands {
		if n == avoid || n.inflight >= int(n.limit) || n.breakerBlockedLocked(now) {
			continue
		}
		spare := (n.limit - float64(n.inflight)) / n.limit
		score := n.health + 0.1*spare
		if i == 0 && within != nil {
			score += p.ownerBonus
		}
		if best == nil || score > bestScore {
			best, bestScore = n, score
		}
	}
	return best
}

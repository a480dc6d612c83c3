package ethrpc

import (
	"context"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
)

// MultiClient fans JSON-RPC calls across several endpoints — the adaptive
// fetch plane under the backfill engine and the watcher. It is a thin
// JSON-RPC skin over the endpoint-generic Plane scheduler: every endpoint
// runs its own AIMD concurrency window (grow additively on success, halve on
// 429/timeout, TCP-style), a health EWMA steers each call toward the
// endpoint most likely to answer, and an optional hedge re-issues straggling
// requests on a second endpoint. Rate-limited providers are the point: one
// API key caps out at its quota, N endpoints give N× the fetch ceiling, and
// AIMD finds each endpoint's sustainable concurrency without configuration.
//
// One endpoint runs through the same plane as N: it keeps its AIMD window,
// health, breaker and retries, and, having nowhere to rotate to, waits out
// a 429's Retry-After.
//
// Safe for concurrent use.
type MultiClient struct {
	plane   *Plane
	clients []*client // clients[i] backs plane node i
}

// aimdInitialLimit is where every node's window starts: low enough to probe
// politely, high enough that growth finds the ceiling within a few hundred
// calls.
const aimdInitialLimit = 4

// aimdHalveCooldown spaces multiplicative decreases: one congestion event
// (burst of 429s from the same cause) halves the window once, not once per
// in-flight request.
const aimdHalveCooldown = 50 * time.Millisecond

// healthGain is the EWMA step for the per-node health score.
const healthGain = 0.1

// NewMultiClient builds a fetch plane over the given endpoint URLs. Given
// exactly one, it turns on WithPlaneRetryAfter: a lone endpoint has nowhere
// to rotate to.
func NewMultiClient(endpoints []string, opts ...PlaneOption) (*MultiClient, error) {
	if len(endpoints) == 1 {
		opts = append([]PlaneOption{WithPlaneRetryAfter()}, opts...)
	}
	plane, err := NewPlane(endpoints, opts...)
	if err != nil {
		return nil, err
	}
	m := &MultiClient{plane: plane}
	for _, url := range endpoints {
		m.clients = append(m.clients, newClient(url))
	}
	return m, nil
}

// Endpoints returns how many endpoints back the plane.
func (m *MultiClient) Endpoints() int { return len(m.clients) }

// Stats snapshots every endpoint.
func (m *MultiClient) Stats() []EndpointStats { return m.plane.Stats() }

// GetCode fetches deployed bytecode at addr ("latest").
func (m *MultiClient) GetCode(ctx context.Context, addr chain.Address) ([]byte, error) {
	return multiDo(ctx, m, func(ctx context.Context, c *client) ([]byte, error) {
		return c.GetCode(ctx, addr)
	})
}

// GetCodeBatch fetches bytecode for many addresses in one batch round trip,
// scheduled onto the healthiest endpoint with spare AIMD capacity.
func (m *MultiClient) GetCodeBatch(ctx context.Context, addrs []chain.Address) ([][]byte, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	return multiDo(ctx, m, func(ctx context.Context, c *client) ([][]byte, error) {
		return c.GetCodeBatch(ctx, addrs)
	})
}

// BlockNumber returns the head block (as reported by whichever endpoint the
// scheduler picked — the plane assumes all endpoints serve the same chain).
func (m *MultiClient) BlockNumber(ctx context.Context) (uint64, error) {
	return multiDo(ctx, m, func(ctx context.Context, c *client) (uint64, error) {
		return c.BlockNumber(ctx)
	})
}

// ChainID returns the chain identifier.
func (m *MultiClient) ChainID(ctx context.Context) (uint64, error) {
	return multiDo(ctx, m, func(ctx context.Context, c *client) (uint64, error) {
		return c.ChainID(ctx)
	})
}

// multiDo runs one call through the plane: scheduled, hedged and retried.
func multiDo[T any](ctx context.Context, m *MultiClient, fn func(context.Context, *client) (T, error)) (T, error) {
	return PlaneDo(ctx, m.plane, nil, func(ctx context.Context, n *Node) (T, error) {
		return fn(ctx, m.clients[n.Index()])
	})
}

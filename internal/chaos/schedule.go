// Package chaos is the deterministic fault-injection plane for the
// ingestion/scoring stack. A Schedule declares fault windows — endpoint
// blackouts and flaps, malformed and truncated JSON-RPC bodies, partial
// batch failures, filter-loss storms, latency spikes, torn and failed
// checkpoint writes, alert-sink outages and hangs, replica crashes and
// hang-without-crash, dropped and stalled subscription sockets — and an
// Injector binds them onto the real seams: http.Handler middleware in front
// of the simulated RPC node or a scoring replica (wrapping the hijacked
// connection of a push socket), the lifecycle.WriteFileAtomic hook, and a
// monitor.Sink wrapper.
//
// Every probabilistic decision draws from one stream seeded by the
// schedule, so a soak run is reproducible: the same seed yields the same
// marginal fault distribution (under concurrency the interleaving of draws
// varies, but which windows open, when, and how hard is fixed).
package chaos

import (
	"fmt"
	"time"
)

// Scope names which seam of the stack a fault window binds to.
type Scope string

const (
	// ScopeRPC targets the simulated JSON-RPC endpoints (ingestion side).
	ScopeRPC Scope = "rpc"
	// ScopeReplica targets scoring-cluster replicas (serving side).
	ScopeReplica Scope = "replica"
	// ScopeStore targets lifecycle/checkpoint writes.
	ScopeStore Scope = "store"
	// ScopeSink targets alert sinks.
	ScopeSink Scope = "sink"
)

// Kind is the concrete fault a window injects.
type Kind string

const (
	// KindBlackout aborts every exchange mid-connection — the endpoint (or a
	// crashed replica) is gone, clients see a transport fault.
	KindBlackout Kind = "blackout"
	// KindFlap aborts each exchange with probability P — an endpoint going
	// up and down faster than any health check.
	KindFlap Kind = "flap"
	// KindMalformed answers 200 with a garbage body — the breaker-tripping
	// fault class: not congestion, not an outage, just wrong bytes.
	KindMalformed Kind = "malformed"
	// KindTruncate serves only a prefix of the real response body, so the
	// client's JSON decode dies mid-stream.
	KindTruncate Kind = "truncate"
	// KindPartialBatch drops each entry of a JSON-RPC batch response with
	// probability P — some sub-requests answered, some silently missing.
	KindPartialBatch Kind = "partial-batch"
	// KindFilterLoss answers filter polls with "filter not found", forcing
	// the tx feed through its reopen path — a node restart's signature.
	KindFilterLoss Kind = "filter-loss"
	// KindLatency delays each exchange by Extra before serving it honestly.
	KindLatency Kind = "latency"
	// KindHang holds each exchange open until the window closes (or the
	// client gives up) — hang-without-crash, the fault health EWMAs are
	// slowest to see.
	KindHang Kind = "hang"
	// KindWriteFail fails checkpoint/store writes outright.
	KindWriteFail Kind = "write-fail"
	// KindWriteTorn publishes only a prefix of the blob (fraction P, default
	// half) — the torn write a crash freezes on disk.
	KindWriteTorn Kind = "write-torn"
	// KindSinkError makes alert-sink Emit return an error.
	KindSinkError Kind = "sink-error"
	// KindSinkHang blocks Emit for Extra per alert.
	KindSinkHang Kind = "sink-hang"
	// KindSubDrop closes every eth_subscribe socket when its window opens
	// (at the socket's first write inside it) and refuses upgrades 503
	// while the window is open — a provider shedding its push connections.
	KindSubDrop Kind = "sub-drop"
	// KindSubStall holds every write on a subscription socket until its
	// window closes: the socket stays up and says nothing.
	KindSubStall Kind = "sub-stall"
)

// Window is one fault interval: Kind injected at Scope/Target while the
// injector clock is inside [From, To).
type Window struct {
	Scope Scope
	Kind  Kind
	// Target is the endpoint/replica/sink index the fault binds to; -1
	// means every target in the scope.
	Target int
	// From/To bound the window relative to Injector.Start.
	From time.Duration
	To   time.Duration
	// P parameterizes probabilistic kinds: the abort probability for
	// flap, the per-entry drop probability for partial-batch, the kept
	// fraction for write-torn.
	P float64
	// Extra is the latency spike / sink hang duration.
	Extra time.Duration
}

// Schedule is a named, seeded fault plan.
type Schedule struct {
	Name    string
	Seed    int64
	Windows []Window
}

// Horizon returns the instant the last window closes — the natural soak
// length (callers usually run one or two polling windows past it to measure
// recovery).
func (s Schedule) Horizon() time.Duration {
	var h time.Duration
	for _, w := range s.Windows {
		if w.To > h {
			h = w.To
		}
	}
	return h
}

// ScheduleNames lists the built-in schedules in presentation order.
func ScheduleNames() []string {
	return []string{
		"blackout", "flap", "malformed", "filter-storm",
		"torn-store", "sink-outage", "replica-crash", "replica-hang", "subscription", "soak",
	}
}

// Named builds a built-in schedule. unit scales every window boundary, so
// the same plan runs millisecond-scale under `go test` and second-scale in a
// CLI soak: a window declared at [2,6) opens at 2*unit. The plans assume the
// driver runs for at least Horizon() plus a recovery margin.
func Named(name string, seed int64, unit time.Duration) (Schedule, error) {
	if unit <= 0 {
		unit = time.Second
	}
	u := func(n int) time.Duration { return time.Duration(n) * unit }
	s := Schedule{Name: name, Seed: seed}
	switch name {
	case "blackout":
		// Full ingestion outage: every endpoint dark, then recovery.
		s.Windows = []Window{
			{Scope: ScopeRPC, Kind: KindBlackout, Target: -1, From: u(2), To: u(6)},
		}
	case "flap":
		// Endpoints going up and down plus latency spikes — the plane's
		// AIMD/health machinery should ride through without losing work.
		s.Windows = []Window{
			{Scope: ScopeRPC, Kind: KindFlap, Target: -1, From: u(1), To: u(8), P: 0.3},
			{Scope: ScopeRPC, Kind: KindLatency, Target: 0, From: u(3), To: u(6), Extra: unit / 4},
		}
	case "malformed":
		// One endpoint answering garbage — the breaker must hard-trip it
		// out of rotation instead of letting retries grind on it.
		s.Windows = []Window{
			{Scope: ScopeRPC, Kind: KindMalformed, Target: 0, From: u(1), To: u(7)},
		}
	case "filter-storm":
		// Nodes forgetting installed tx filters; the feed reopens and
		// rescans without dropping or double-judging a tx.
		s.Windows = []Window{
			{Scope: ScopeRPC, Kind: KindFilterLoss, Target: -1, From: u(2), To: u(5), P: 0.5},
		}
	case "torn-store":
		// Checkpoint writes torn then failing outright; CRC validation and
		// last-good rollback keep resume sound.
		s.Windows = []Window{
			{Scope: ScopeStore, Kind: KindWriteTorn, Target: -1, From: u(1), To: u(4), P: 0.5},
			{Scope: ScopeStore, Kind: KindWriteFail, Target: -1, From: u(5), To: u(7)},
		}
	case "sink-outage":
		// Alert delivery failing; the WAL journal must spill and replay
		// with zero lost, zero duplicated alerts.
		s.Windows = []Window{
			{Scope: ScopeSink, Kind: KindSinkError, Target: -1, From: u(2), To: u(6)},
		}
	case "replica-crash":
		// A scoring replica dropping connections; the ring reroutes its
		// neighborhood and the plane breaker stops probing it every call.
		s.Windows = []Window{
			{Scope: ScopeReplica, Kind: KindBlackout, Target: 0, From: u(2), To: u(6)},
		}
	case "replica-hang":
		// Hang-without-crash: the replica accepts and never answers; the
		// router watchdog must eject it from owner scheduling.
		s.Windows = []Window{
			{Scope: ScopeReplica, Kind: KindHang, Target: 0, From: u(2), To: u(6)},
		}
	case "subscription":
		// Push sockets shed, then silent, then shed on one endpoint: the
		// watchers fall back to their poll timers and redial, with no alert
		// lost or repeated.
		s.Windows = []Window{
			{Scope: ScopeRPC, Kind: KindSubDrop, Target: -1, From: u(1), To: u(3)},
			{Scope: ScopeRPC, Kind: KindSubStall, Target: -1, From: u(4), To: u(6)},
			{Scope: ScopeRPC, Kind: KindSubDrop, Target: 0, From: u(7), To: u(8)},
		}
	case "soak":
		// Everything, staggered: the full resilience layer under load.
		s.Windows = []Window{
			{Scope: ScopeRPC, Kind: KindFlap, Target: -1, From: u(1), To: u(9), P: 0.25},
			{Scope: ScopeRPC, Kind: KindMalformed, Target: 0, From: u(2), To: u(5)},
			{Scope: ScopeRPC, Kind: KindFilterLoss, Target: -1, From: u(4), To: u(6), P: 0.5},
			{Scope: ScopeRPC, Kind: KindBlackout, Target: -1, From: u(6), To: u(8)},
			{Scope: ScopeRPC, Kind: KindSubDrop, Target: -1, From: u(2), To: u(4)},
			{Scope: ScopeRPC, Kind: KindSubStall, Target: -1, From: u(5), To: u(7)},
			{Scope: ScopeStore, Kind: KindWriteTorn, Target: -1, From: u(3), To: u(7), P: 0.5},
			{Scope: ScopeSink, Kind: KindSinkError, Target: -1, From: u(2), To: u(9)},
			{Scope: ScopeReplica, Kind: KindHang, Target: 0, From: u(1), To: u(4)},
			{Scope: ScopeReplica, Kind: KindBlackout, Target: 0, From: u(5), To: u(8)},
		}
	default:
		return Schedule{}, fmt.Errorf("chaos: unknown schedule %q (have %v)", name, ScheduleNames())
	}
	return s, nil
}

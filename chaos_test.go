package phishinghook

import (
	"context"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/chaos"
)

// flapAndSinkOutage is the satellite soak plan: endpoints flapping for most
// of the run while alert delivery is down, plus a latency spike — the two
// fault families that pull on opposite ends of the exactly-once contract
// (the flap forces replays and feed reopens, the outage forces WAL spills).
func flapAndSinkOutage(unit time.Duration) *ChaosSchedule {
	u := func(n int) time.Duration { return time.Duration(n) * unit }
	return &ChaosSchedule{
		Name: "flap+sink-outage",
		Seed: 11,
		Windows: []ChaosWindow{
			{Scope: chaos.ScopeRPC, Kind: chaos.KindFlap, Target: -1, From: u(1), To: u(8), P: 0.3},
			{Scope: chaos.ScopeRPC, Kind: chaos.KindLatency, Target: 0, From: u(2), To: u(5), Extra: unit / 5},
			{Scope: chaos.ScopeSink, Kind: chaos.KindSinkError, Target: -1, From: u(1), To: u(7)},
		},
	}
}

// runSoakScenario drives one RunChaosSoak under the satellite plan and
// asserts the zero-lost / zero-duplicate contract.
func runSoakScenario(t *testing.T, scenario string) {
	t.Helper()
	cfg := DefaultChaosSoakConfig(11)
	cfg.Scenario = scenario
	cfg.Unit = 150 * time.Millisecond
	cfg.Plan = flapAndSinkOutage(cfg.Unit)
	cfg.Dir = t.TempDir()
	cfg.Logf = t.Logf

	rep, err := RunChaosSoak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineAlerts == 0 {
		t.Fatal("baseline pass produced no alerts; the soak proved nothing")
	}
	if rep.Faults[string(chaos.KindFlap)] == 0 {
		t.Error("flap windows never fired")
	}
	if rep.Faults[string(chaos.KindSinkError)] == 0 {
		t.Error("sink-outage windows never fired")
	}
	if rep.Lost != 0 {
		t.Errorf("%d alerts lost under chaos (baseline %d)", rep.Lost, rep.BaselineAlerts)
	}
	if rep.Duplicates != 0 {
		t.Errorf("%d duplicate alerts under chaos", rep.Duplicates)
	}
	// Every spilled entry ends replayed, pending, or absorbed by the sent
	// ledger; Deduped may additionally count direct re-emissions that never
	// spilled, so it bounds the slack rather than closing the equation.
	if got := rep.WAL.Replayed + uint64(rep.WAL.Pending); got > rep.WAL.Spilled || rep.WAL.Spilled > got+rep.WAL.Deduped {
		t.Errorf("WAL does not balance: %+v", rep.WAL)
	}
	t.Logf("%s: %d alerts both passes; wal %+v; faults %v", scenario, rep.Alerts, rep.WAL, rep.Faults)
}

// TestChaosSoakTxWatchExactlyOnce soaks the tx stream (kill/resume included)
// under flapping endpoints and a long sink outage: every baseline alert must
// arrive exactly once, through WAL spill/replay where the outage forced it.
func TestChaosSoakTxWatchExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is seconds-long; skipped in -short")
	}
	runSoakScenario(t, "txwatch")
}

// TestChaosSoakSubscriptionFaults soaks the contract watcher, which wakes
// on newHeads, under the subscription schedule: push sockets shed, then
// silent, then shed on one endpoint, with a mid-run kill. Both socket
// faults must fire, and every baseline alert must arrive exactly once.
func TestChaosSoakSubscriptionFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is seconds-long; skipped in -short")
	}
	cfg := DefaultChaosSoakConfig(11)
	cfg.Scenario = "watch"
	cfg.Schedule = "subscription"
	cfg.Unit = 150 * time.Millisecond
	cfg.Dir = t.TempDir()
	cfg.Logf = t.Logf
	rep, err := RunChaosSoak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineAlerts == 0 {
		t.Fatal("baseline pass produced no alerts; the soak proved nothing")
	}
	for _, k := range []ChaosKind{chaos.KindSubDrop, chaos.KindSubStall} {
		if rep.Faults[string(k)] == 0 {
			t.Errorf("%s windows never fired (faults %v)", k, rep.Faults)
		}
	}
	if rep.Lost != 0 || rep.Duplicates != 0 {
		t.Errorf("%d lost and %d duplicate alerts under socket faults (baseline %d)", rep.Lost, rep.Duplicates, rep.BaselineAlerts)
	}
	t.Logf("%d alerts both passes; faults %v", rep.Alerts, rep.Faults)
}

// TestChaosSoakClusterExactlyOnce runs the same plan with scoring routed
// through the consistent-hash cluster over chaos-wrapped replicas.
func TestChaosSoakClusterExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is seconds-long; skipped in -short")
	}
	runSoakScenario(t, "cluster")
}

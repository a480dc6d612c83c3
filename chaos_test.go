package phishinghook

import (
	"context"
	"errors"
	"fmt"
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

// TestChaosSoakGates runs the four gated fault plans at seed 1 (unit 250 ms,
// poll 50 ms). Every attempt of every plan must lose and duplicate no alert.
// Each plan also has a gate of its own:
//   - txwatch/soak, everything at once with a mid-run kill: both push-socket
//     faults fire, or the soak never tested the fall back to polling;
//   - txwatch/malformed: the plane breaker trips on the garbage streak
//     instead of letting retries grind on wrong bytes;
//   - txwatch/blackout: the cursor advances again within 2 polling windows
//     of the full blackout lifting;
//   - cluster/replica-hang: the router watchdog ejects the hung replica.
//
// Those gates observe wall-clock behaviour, so a miss reruns the whole soak,
// up to 3 attempts, and they are not asserted under -race. t.Parallel holds
// the soaks until the package's other tests have run, by when go test ./...
// has mostly finished the other packages, whose load would land on the
// recovery measurement.
func TestChaosSoakGates(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is seconds-long; skipped in -short")
	}
	t.Parallel()
	for _, plan := range []struct {
		scenario, schedule string
		kill               bool
		gate               func(*ChaosSoakReport) error
	}{
		{"txwatch", "soak", true, func(r *ChaosSoakReport) error {
			for _, k := range []ChaosKind{chaos.KindSubDrop, chaos.KindSubStall} {
				if r.Faults[string(k)] == 0 {
					return fmt.Errorf("%s never fired (faults %v)", k, r.Faults)
				}
			}
			return nil
		}},
		{"txwatch", "malformed", false, func(r *ChaosSoakReport) error {
			if r.BreakerTrips == 0 {
				return errors.New("no breaker trips on a malformed-response streak")
			}
			return nil
		}},
		{"txwatch", "blackout", false, func(r *ChaosSoakReport) error {
			if r.RecoveryMS < 0 {
				return errors.New("the cursor never advanced after the blackout")
			}
			if r.RecoveryPolls > 2 {
				return fmt.Errorf("recovered in %.1f polling windows, budget 2", r.RecoveryPolls)
			}
			return nil
		}},
		{"cluster", "replica-hang", false, func(r *ChaosSoakReport) error {
			if r.WatchdogEjections == 0 {
				return errors.New("the watchdog never ejected the hung replica")
			}
			return nil
		}},
	} {
		t.Run(plan.scenario+"/"+plan.schedule, func(t *testing.T) {
			for attempt := 1; ; attempt++ {
				cfg := DefaultChaosSoakConfig(1)
				cfg.Scenario, cfg.Schedule, cfg.Kill = plan.scenario, plan.schedule, plan.kill
				cfg.Unit, cfg.PollInterval = 250*time.Millisecond, 50*time.Millisecond
				cfg.Dir = t.TempDir()
				rep, err := RunChaosSoak(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d/%d alerts, wal %+v, %d breaker trips, %d ejections, recovery %.1f polls",
					rep.Alerts, rep.BaselineAlerts, rep.WAL, rep.BreakerTrips, rep.WatchdogEjections, rep.RecoveryPolls)
				if rep.BaselineAlerts == 0 {
					t.Fatal("baseline pass produced no alerts; the soak proved nothing")
				}
				if rep.Lost != 0 || rep.Duplicates != 0 {
					t.Fatalf("%d lost and %d duplicate alerts under chaos (baseline %d)", rep.Lost, rep.Duplicates, rep.BaselineAlerts)
				}
				if raceEnabled {
					return
				}
				err = plan.gate(rep)
				if err == nil {
					return
				}
				if attempt == 3 {
					t.Fatalf("attempt 3/3: %v", err)
				}
				t.Logf("attempt %d/3: %v", attempt, err)
			}
		})
	}
}

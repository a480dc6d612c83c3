package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	ph "github.com/phishinghook/phishinghook"
)

// Chaos gate parameters. Each soak runs a pipeline twice over the same
// simulated chain — clean, then under a named fault schedule — and diffs the
// alert sets; the gates are the resilience layer's contract, not a
// performance number, so they are absolute: zero lost alerts (WAL replay and
// poison drain accounted), zero duplicates (exactly-once across sink
// outages, torn checkpoints and a mid-run kill), breaker trips on the
// malformed-response streak, and post-blackout recovery within two polling
// windows.
const (
	chaosUnit          = 250 * time.Millisecond
	chaosPoll          = 50 * time.Millisecond // unit/5: recovery gate budget is 2 of these
	chaosMaxRecovery   = 2.0                   // polling windows after full blackout
	chaosBenchAttempts = 3                     // recovery is wall-clock; retry scheduling noise
)

// chaosRun is one schedule's soak outcome plus its gate verdicts.
type chaosRun struct {
	Scenario string `json:"scenario"`
	Schedule string `json:"schedule"`
	Kill     bool   `json:"kill"`

	BaselineAlerts int               `json:"baseline_alerts"`
	Alerts         int               `json:"alerts"`
	Lost           int               `json:"lost_alerts"`
	Duplicates     int               `json:"duplicate_alerts"`
	Extra          int               `json:"extra_alerts"`
	WAL            ph.AlertWALStats  `json:"wal"`
	BreakerTrips   uint64            `json:"breaker_trips"`
	PoisonDrained  int               `json:"poison_drained"`
	Ejections      uint64            `json:"watchdog_ejections"`
	DegradedTx     uint64            `json:"degraded_tx_verdicts"`
	RecoveryMS     float64           `json:"recovery_ms"`
	RecoveryPolls  float64           `json:"recovery_polls"`
	Faults         map[string]uint64 `json:"faults_injected"`
}

// chaosReport is the BENCH_chaos.json envelope consumed by the CI soak step.
type chaosReport struct {
	GOOS   string  `json:"goos"`
	GOARCH string  `json:"goarch"`
	Seed   int64   `json:"seed"`
	UnitMS float64 `json:"unit_ms"`
	PollMS float64 `json:"poll_ms"`

	Runs []chaosRun `json:"runs"`
}

// runChaosBench drives the gated chaos soaks — the full staggered schedule
// with a mid-run kill, the malformed-streak breaker check, the full-blackout
// recovery check, and a hung-replica cluster pass — writes BENCH_chaos.json,
// and fails when any gate is missed.
func runChaosBench(seed int64, path string) error {
	rep := chaosReport{
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Seed:   seed,
		UnitMS: float64(chaosUnit.Microseconds()) / 1000,
		PollMS: float64(chaosPoll.Microseconds()) / 1000,
	}

	type gated struct {
		scenario, schedule string
		kill               bool
		check              func(r chaosRun) error
	}
	exactlyOnce := func(r chaosRun) error {
		if r.Lost > 0 {
			return fmt.Errorf("chaos gate: %s/%s lost %d alerts (want 0)", r.Scenario, r.Schedule, r.Lost)
		}
		if r.Duplicates > 0 {
			return fmt.Errorf("chaos gate: %s/%s delivered %d duplicate alerts (want 0)", r.Scenario, r.Schedule, r.Duplicates)
		}
		return nil
	}
	plans := []gated{
		// Everything at once, with a kill/resume mid-schedule: the headline
		// zero-lost / zero-duplicate soak. The push-socket faults must fire,
		// or the soak never tested the watchers' fall back to polling.
		{"txwatch", "soak", true, func(r chaosRun) error {
			if err := exactlyOnce(r); err != nil {
				return err
			}
			for _, k := range []string{"sub-drop", "sub-stall"} {
				if r.Faults[k] == 0 {
					return fmt.Errorf("chaos gate: %s/%s never fired %s", r.Scenario, r.Schedule, k)
				}
			}
			return nil
		}},
		// One endpoint answering garbage: the plane breaker must hard-trip it
		// instead of letting retries grind on wrong bytes.
		{"txwatch", "malformed", false, func(r chaosRun) error {
			if err := exactlyOnce(r); err != nil {
				return err
			}
			if r.BreakerTrips == 0 {
				return fmt.Errorf("chaos gate: %s/%s saw no breaker trips on a malformed-response streak", r.Scenario, r.Schedule)
			}
			return nil
		}},
		// Full ingestion outage: the cursor must move again within two
		// polling windows of the blackout lifting.
		{"txwatch", "blackout", false, func(r chaosRun) error {
			if err := exactlyOnce(r); err != nil {
				return err
			}
			if r.RecoveryMS < 0 {
				return fmt.Errorf("chaos gate: %s/%s never recovered after the blackout", r.Scenario, r.Schedule)
			}
			if r.RecoveryPolls > chaosMaxRecovery {
				return fmt.Errorf("chaos gate: %s/%s recovered in %.1f polling windows (budget %.1f)",
					r.Scenario, r.Schedule, r.RecoveryPolls, chaosMaxRecovery)
			}
			return nil
		}},
		// Hang-without-crash on a scoring replica: the router watchdog must
		// eject it from owner scheduling.
		{"cluster", "replica-hang", false, func(r chaosRun) error {
			if err := exactlyOnce(r); err != nil {
				return err
			}
			if r.Ejections == 0 {
				return fmt.Errorf("chaos gate: %s/%s hung replica was never ejected by the watchdog", r.Scenario, r.Schedule)
			}
			return nil
		}},
	}

	for _, plan := range plans {
		var (
			run     chaosRun
			gateErr error
		)
		// Recovery and ejection are wall-clock observations on a loaded CI
		// box; a gate miss retries the whole soak before failing the build.
		for attempt := 1; attempt <= chaosBenchAttempts; attempt++ {
			r, err := chaosSoakOnce(seed, plan.scenario, plan.schedule, plan.kill)
			if err != nil {
				return err
			}
			run = r
			if gateErr = plan.check(r); gateErr == nil {
				break
			}
			fmt.Printf("  attempt %d/%d: %v\n", attempt, chaosBenchAttempts, gateErr)
		}
		rep.Runs = append(rep.Runs, run)
		fmt.Printf("chaos %s/%s: %d/%d alerts, lost=%d dup=%d, wal spill/replay/dedup=%d/%d/%d, trips=%d, eject=%d, recovery=%.1f polls\n",
			run.Scenario, run.Schedule, run.Alerts, run.BaselineAlerts, run.Lost, run.Duplicates,
			run.WAL.Spilled, run.WAL.Replayed, run.WAL.Deduped, run.BreakerTrips, run.Ejections, run.RecoveryPolls)
		if gateErr != nil {
			writeChaosReport(path, rep)
			return gateErr
		}
	}
	if err := writeChaosReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// chaosSoakOnce runs one scenario/schedule soak with the bench cadence.
func chaosSoakOnce(seed int64, scenario, schedule string, kill bool) (chaosRun, error) {
	cfg := ph.DefaultChaosSoakConfig(seed)
	cfg.Scenario = scenario
	cfg.Schedule = schedule
	cfg.Unit = chaosUnit
	cfg.PollInterval = chaosPoll
	cfg.Kill = kill
	r, err := ph.RunChaosSoak(context.Background(), cfg)
	if err != nil {
		return chaosRun{}, fmt.Errorf("chaos soak %s/%s: %w", scenario, schedule, err)
	}
	return chaosRun{
		Scenario:       scenario,
		Schedule:       schedule,
		Kill:           kill,
		BaselineAlerts: r.BaselineAlerts,
		Alerts:         r.Alerts,
		Lost:           r.Lost,
		Duplicates:     r.Duplicates,
		Extra:          r.Extra,
		WAL:            r.WAL,
		BreakerTrips:   r.BreakerTrips,
		PoisonDrained:  r.PoisonDrained,
		Ejections:      r.WatchdogEjections,
		DegradedTx:     r.DegradedTx,
		RecoveryMS:     r.RecoveryMS,
		RecoveryPolls:  r.RecoveryPolls,
		Faults:         r.Faults,
	}, nil
}

func writeChaosReport(path string, rep chaosReport) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

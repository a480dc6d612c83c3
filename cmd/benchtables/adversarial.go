package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	ph "github.com/phishinghook/phishinghook"
	"github.com/phishinghook/phishinghook/internal/dataset"
	"github.com/phishinghook/phishinghook/internal/eval"
)

// adversarialModel is one model's red-team scorecard in
// BENCH_adversarial.json: the same greedy attack run against the raw-feature
// baseline and its hardened twin, plus both models' clean-holdout AUC so the
// hardening can't buy robustness by giving up accuracy.
type adversarialModel struct {
	BaselineEvasionRate float64 `json:"baseline_evasion_rate"`
	HardenedEvasionRate float64 `json:"hardened_evasion_rate"`
	BaselineMeanDrop    float64 `json:"baseline_mean_drop"`
	HardenedMeanDrop    float64 `json:"hardened_mean_drop"`
	Attempted           int     `json:"attempted"`
	QueriesSpent        int     `json:"queries_spent"`
	BaselineCleanAUC    float64 `json:"baseline_clean_auc"`
	HardenedCleanAUC    float64 `json:"hardened_clean_auc"`
}

// adversarialReport is the BENCH_adversarial.json envelope.
type adversarialReport struct {
	GOOS            string                      `json:"goos"`
	GOARCH          string                      `json:"goarch"`
	Seed            int64                       `json:"seed"`
	Budget          int                         `json:"attack_budget"`
	Models          map[string]adversarialModel `json:"models"`
	CachedAllocsOp  int64                       `json:"hardened_cached_score_allocs_per_op"`
	CachedNsPerOp   float64                     `json:"hardened_cached_score_ns_per_op"`
	SuspectsFlagged uint64                      `json:"hardened_suspects_flagged"`
}

// runAdversarial red-teams the paper's histogram models: a greedy
// semantics-preserving bytecode attack against a raw-feature baseline and
// the canonical+augmented hardened twin, trained on one half of the
// simulated corpus and attacked on flagged phishing from the other half.
// Gates: the attack must gut the baseline (evasion >= 0.5 — otherwise the
// red team is broken and the comparison means nothing), the hardened model
// must at least halve the evasion rate, its clean-holdout AUC must stay
// within 0.01 of the baseline's, and the cached canonical Score path must
// not allocate.
func runAdversarial(seed int64, path string) error {
	sim, err := ph.StartSimulation(ph.DefaultSimulationConfig(seed))
	if err != nil {
		return err
	}
	defer sim.Close()
	ds := sim.Dataset()

	// Deterministic interleaved split: even indices train, odd hold out.
	train, holdout := &dataset.Dataset{}, &dataset.Dataset{}
	for i, s := range ds.Samples {
		if i%2 == 0 {
			train.Samples = append(train.Samples, s)
		} else {
			holdout.Samples = append(holdout.Samples, s)
		}
	}

	const budget = 48
	report := adversarialReport{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Seed: seed, Budget: budget, Models: map[string]adversarialModel{}}
	ctx := context.Background()
	var gateErrs []string
	var hardenedRF *ph.Detector // reused for the alloc gate below

	for _, name := range []string{"Random Forest", "XGBoost"} {
		spec, err := ph.ModelByName(name)
		if err != nil {
			return err
		}
		baseline, err := ph.Train(spec, train, ph.WithDetectorSeed(seed))
		if err != nil {
			return err
		}
		hardened, err := ph.Train(spec, train, ph.WithDetectorSeed(seed),
			ph.WithCanonicalFeatures(), ph.WithAdversarialAugment(0.5), ph.WithEvasionTelemetry())
		if err != nil {
			return err
		}
		if name == "Random Forest" {
			hardenedRF = hardened
		}

		// Attack population: holdout phishing the baseline actually flags.
		var samples [][]byte
		for _, s := range holdout.Samples {
			if s.Label != dataset.Phishing || len(samples) >= 24 {
				continue
			}
			v, err := baseline.Score(ctx, s.Bytecode)
			if err != nil {
				return err
			}
			if v.IsPhishing() {
				samples = append(samples, s.Bytecode)
			}
		}
		cfg := ph.AttackConfig{Seed: seed, Budget: budget, Workers: 4}
		baseRes, err := ph.RunAttack(baseline, samples, cfg)
		if err != nil {
			return err
		}
		hardRes, err := ph.RunAttack(hardened, samples, cfg)
		if err != nil {
			return err
		}

		aucOf := func(d *ph.Detector) (float64, error) {
			scores := make([]float64, 0, len(holdout.Samples))
			labels := make([]int, 0, len(holdout.Samples))
			for _, s := range holdout.Samples {
				v, err := d.Score(ctx, s.Bytecode)
				if err != nil {
					return 0, err
				}
				scores = append(scores, v.PhishProb())
				lab := 0
				if s.Label == dataset.Phishing {
					lab = 1
				}
				labels = append(labels, lab)
			}
			return eval.AUC(scores, labels), nil
		}
		baseAUC, err := aucOf(baseline)
		if err != nil {
			return err
		}
		hardAUC, err := aucOf(hardened)
		if err != nil {
			return err
		}

		m := adversarialModel{
			BaselineEvasionRate: baseRes.EvasionRate,
			HardenedEvasionRate: hardRes.EvasionRate,
			BaselineMeanDrop:    baseRes.MeanDrop,
			HardenedMeanDrop:    hardRes.MeanDrop,
			Attempted:           baseRes.Attempted,
			QueriesSpent:        baseRes.Queries + hardRes.Queries,
			BaselineCleanAUC:    baseAUC,
			HardenedCleanAUC:    hardAUC,
		}
		report.Models[name] = m
		fmt.Printf("%-14s evasion base=%.2f hard=%.2f (attempted %d)  clean AUC base=%.4f hard=%.4f\n",
			name, m.BaselineEvasionRate, m.HardenedEvasionRate, m.Attempted, baseAUC, hardAUC)

		if baseRes.Attempted == 0 {
			gateErrs = append(gateErrs, fmt.Sprintf("%s: baseline flagged no holdout phishing — nothing to attack", name))
			continue
		}
		if m.BaselineEvasionRate < 0.5 {
			gateErrs = append(gateErrs, fmt.Sprintf("%s: baseline evasion %.2f < 0.5 — the red team no longer guts the raw model", name, m.BaselineEvasionRate))
		}
		if m.HardenedEvasionRate > 0.5*m.BaselineEvasionRate {
			gateErrs = append(gateErrs, fmt.Sprintf("%s: hardened evasion %.2f exceeds half the baseline's %.2f", name, m.HardenedEvasionRate, m.BaselineEvasionRate))
		}
		if hardAUC < baseAUC-0.01 {
			gateErrs = append(gateErrs, fmt.Sprintf("%s: hardened clean AUC %.4f regresses more than 0.01 below baseline %.4f", name, hardAUC, baseAUC))
		}
	}

	// Hot-path gate: the canonical featurization must ride the existing
	// cache, so a warmed hardened Score allocates nothing.
	code := holdout.Samples[0].Bytecode
	if _, err := hardenedRF.Score(ctx, code); err != nil {
		return err
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hardenedRF.Score(ctx, code); err != nil {
				b.Fatal(err)
			}
		}
	})
	report.CachedAllocsOp = r.AllocsPerOp()
	report.CachedNsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	report.SuspectsFlagged = hardenedRF.AdversaryStats().Suspects
	fmt.Printf("hardened cached Score %.1f ns/op %d allocs/op, %d suspects flagged\n",
		report.CachedNsPerOp, report.CachedAllocsOp, report.SuspectsFlagged)
	if report.CachedAllocsOp > 0 {
		gateErrs = append(gateErrs, fmt.Sprintf("cached hardened Score allocates %d objects/op, want 0", report.CachedAllocsOp))
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)

	if len(gateErrs) > 0 {
		for _, e := range gateErrs {
			fmt.Fprintln(os.Stderr, "adversarial gate: "+e)
		}
		return fmt.Errorf("adversarial robustness gate failed (%d violations)", len(gateErrs))
	}
	return nil
}

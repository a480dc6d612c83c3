package phishinghook

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/phishinghook/phishinghook/internal/adversary"
	"github.com/phishinghook/phishinghook/internal/eval"
)

// trainHardenedPair fits the same model twice on the shared corpus: once
// raw, once hardened.
func trainHardenedPair(t *testing.T, model string) (raw, hardened *Detector, ds *Dataset) {
	t.Helper()
	ds, _ = testCorpus(t)
	raw, hardened = trainTwins(t, model, ds, 2)
	return raw, hardened, ds
}

// trainTwins fits model on ds twice with one detector seed: once raw, once
// hardened (canonical features + adversarial augmentation + telemetry).
func trainTwins(t *testing.T, model string, ds *Dataset, seed int64) (raw, hardened *Detector) {
	t.Helper()
	spec, err := ModelByName(model)
	if err != nil {
		t.Fatal(err)
	}
	raw, err = Train(spec, ds, WithDetectorSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	hardened, err = Train(spec, ds, WithDetectorSeed(seed),
		WithCanonicalFeatures(), WithAdversarialAugment(0.5), WithEvasionTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	return raw, hardened
}

// flaggedPhishing collects corpus phishing bytecodes the detector flags —
// the attack population.
func flaggedPhishing(t *testing.T, d *Detector, ds *Dataset, max int) [][]byte {
	t.Helper()
	ctx := context.Background()
	var out [][]byte
	for _, s := range ds.Samples {
		if s.Label != Phishing || len(out) >= max {
			continue
		}
		v, err := d.Score(ctx, s.Bytecode)
		if err != nil {
			t.Fatal(err)
		}
		if v.IsPhishing() {
			out = append(out, s.Bytecode)
		}
	}
	return out
}

// TestHardeningShrinksEvasionRate is the adversarial gate. Random Forest
// and XGBoost are each trained raw and hardened on the even half of the
// seed-1 default simulation, and the greedy attack (budget 48) runs against
// both twins on up to 24 odd-half phishing samples the raw model flags. The
// attack must gut the raw model (evasion >= 0.5; below that the red team
// itself has rotted), the hardened twin must at least halve the evasion
// rate, and its clean AUC on the odd half may fall at most 0.01 below the
// raw model's, so hardening cannot buy robustness with accuracy.
func TestHardeningShrinksEvasionRate(t *testing.T) {
	sim, err := StartSimulation(DefaultSimulationConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	train, holdout := &Dataset{}, &Dataset{}
	for i, s := range sim.Dataset().Samples {
		if i%2 == 0 {
			train.Samples = append(train.Samples, s)
		} else {
			holdout.Samples = append(holdout.Samples, s)
		}
	}
	for _, model := range []string{"Random Forest", "XGBoost"} {
		t.Run(model, func(t *testing.T) {
			raw, hardened := trainTwins(t, model, train, 1)
			samples := flaggedPhishing(t, raw, holdout, 24)
			if len(samples) < 10 {
				t.Fatalf("raw model flagged only %d holdout phishing samples", len(samples))
			}
			cfg := AttackConfig{Seed: 1, Budget: 48, Workers: 4}
			rawRes, err := RunAttack(raw, samples, cfg)
			if err != nil {
				t.Fatal(err)
			}
			hardRes, err := RunAttack(hardened, samples, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rawAUC, hardAUC := cleanAUC(t, raw, holdout), cleanAUC(t, hardened, holdout)
			t.Logf("evasion rate raw=%.2f hardened=%.2f (drop raw=%.3f hard=%.3f, attempted %d); clean AUC raw=%.4f hardened=%.4f",
				rawRes.EvasionRate, hardRes.EvasionRate, rawRes.MeanDrop, hardRes.MeanDrop, rawRes.Attempted, rawAUC, hardAUC)
			if rawRes.Attempted == 0 {
				t.Fatal("attack never ran: no samples attempted")
			}
			if rawRes.EvasionRate < 0.5 {
				t.Errorf("raw evasion rate %.2f, want >= 0.5 — the attack should gut an unhardened histogram model", rawRes.EvasionRate)
			}
			if hardRes.EvasionRate > 0.5*rawRes.EvasionRate {
				t.Errorf("hardened evasion rate %.2f vs raw %.2f: hardening did not halve it", hardRes.EvasionRate, rawRes.EvasionRate)
			}
			if hardAUC < rawAUC-0.01 {
				t.Errorf("hardened clean AUC %.4f is more than 0.01 below the raw model's %.4f", hardAUC, rawAUC)
			}
		})
	}
}

// cleanAUC is d's ROC AUC over every sample of ds, unmutated.
func cleanAUC(t *testing.T, d *Detector, ds *Dataset) float64 {
	t.Helper()
	scores := make([]float64, len(ds.Samples))
	labels := make([]int, len(ds.Samples))
	for i, s := range ds.Samples {
		v, err := d.Score(context.Background(), s.Bytecode)
		if err != nil {
			t.Fatal(err)
		}
		scores[i] = v.PhishProb()
		if s.Label == Phishing {
			labels[i] = 1
		}
	}
	return eval.AUC(scores, labels)
}

// TestEvasionTelemetryFlagsMutants checks that dead-code dilution and proxy
// wrapping trip the serving-time suspect flag while honest bytecode passes.
func TestEvasionTelemetryFlagsMutants(t *testing.T) {
	_, hardened, ds := trainHardenedPair(t, "Random Forest")
	ctx := context.Background()

	var phish []byte
	for _, s := range ds.Samples {
		if s.Label == Phishing {
			phish = s.Bytecode
			break
		}
	}
	clean, err := hardened.Score(ctx, phish)
	if err != nil {
		t.Fatal(err)
	}
	if clean.EvasionSuspect {
		t.Fatalf("honest corpus bytecode flagged suspect (dead=%.3f div=%.3f)", clean.DeadCodeRatio, clean.ScoreDivergence)
	}

	// A mutant stuffed with dead islands crosses the dead-ratio threshold.
	rng := rand.New(rand.NewSource(1))
	diluted := phish
	for i := 0; i < 40; i++ {
		for _, m := range adversary.AugmentMutators() {
			if m.Name() != "dead-island" && m.Name() != "benign-graft" {
				continue
			}
			if mut, err := m.Apply(diluted, rng); err == nil && len(mut) <= adversary.MaxMutantBytes {
				diluted = mut
			}
		}
	}
	v, err := hardened.Score(ctx, diluted)
	if err != nil {
		t.Fatal(err)
	}
	if v.DeadCodeRatio < clean.DeadCodeRatio {
		t.Fatalf("dead-code ratio did not grow: %.3f -> %.3f", clean.DeadCodeRatio, v.DeadCodeRatio)
	}
	if !v.EvasionSuspect {
		t.Fatalf("heavily diluted mutant not flagged (dead=%.3f div=%.3f)", v.DeadCodeRatio, v.ScoreDivergence)
	}

	// EIP-1167 proxies are always suspect: the scored bytes delegate
	// elsewhere, so a benign verdict on them means nothing.
	var pw BytecodeMutator
	for _, m := range AttackMutators() {
		if m.Name() == "proxy-wrap" {
			pw = m
		}
	}
	proxy, err := pw.Apply(phish, rng)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := hardened.Score(ctx, proxy)
	if err != nil {
		t.Fatal(err)
	}
	if !pv.EvasionSuspect {
		t.Fatal("EIP-1167 proxy not flagged suspect")
	}

	stats := hardened.AdversaryStats()
	if stats.Scored == 0 || stats.Suspects < 2 || stats.Proxies < 1 {
		t.Fatalf("adversary stats not accounted: %+v", stats)
	}
}

// TestCanonicalModeSaveLoadRoundTrip: the featurization mode survives
// Save/Load, and the loaded detector reproduces verdicts bit-for-bit.
func TestCanonicalModeSaveLoadRoundTrip(t *testing.T) {
	_, hardened, ds := trainHardenedPair(t, "XGBoost")
	var buf bytes.Buffer
	if err := hardened.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDetector(&buf, WithEvasionTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, s := range ds.Samples {
		if i%7 != 0 {
			continue
		}
		a, err := hardened.Score(ctx, s.Bytecode)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Score(ctx, s.Bytecode)
		if err != nil {
			t.Fatal(err)
		}
		if a.Label != b.Label || a.Confidence != b.Confidence || a.DeadCodeRatio != b.DeadCodeRatio {
			t.Fatalf("sample %d: loaded verdict %+v != trained %+v", i, b, a)
		}
	}
}

// TestHardenedCachedScoreZeroAllocs is the hot-path gate: with canonical
// features and telemetry on, a cache-hit Score must not allocate —
// canonicalization happens only on the miss.
func TestHardenedCachedScoreZeroAllocs(t *testing.T) {
	_, hardened, ds := trainHardenedPair(t, "Random Forest")
	ctx := context.Background()
	code := ds.Samples[0].Bytecode
	if _, err := hardened.Score(ctx, code); err != nil { // warm the cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := hardened.Score(ctx, code); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached hardened Score allocates %.1f/op, want 0", allocs)
	}
}

// TestMutantVariantsScoreIndependently is the dedup regression: the watcher
// and serving cache both key on sha256(raw bytes), so every mutated variant
// must occupy its own cell — an attacker probing with variants gets each one
// scored, never a replayed verdict for different bytes.
func TestMutantVariantsScoreIndependently(t *testing.T) {
	_, hardened, ds := trainHardenedPair(t, "Random Forest")
	ctx := context.Background()
	code := ds.Samples[0].Bytecode
	rng := rand.New(rand.NewSource(4))

	variants := [][]byte{code}
	for _, m := range AttackMutators() {
		if mut, err := m.Apply(code, rng); err == nil {
			variants = append(variants, mut)
		}
	}
	if len(variants) < 5 {
		t.Fatalf("only %d variants produced", len(variants))
	}
	keys := make(map[[32]byte]bool)
	for _, v := range variants {
		keys[sha256.Sum256(v)] = true
	}
	if len(keys) != len(variants) {
		t.Fatalf("dedup collision: %d variants share %d sha256 keys", len(variants), len(keys))
	}
	_, missesBefore := hardened.CacheStats()
	for _, v := range variants {
		if _, err := hardened.Score(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	_, missesAfter := hardened.CacheStats()
	if got := missesAfter - missesBefore; got != uint64(len(variants)) {
		t.Fatalf("scored %d distinct variants but saw %d cache misses — variants collided", len(variants), got)
	}
}

// TestAttackAgainstSwappableDeterministic races concurrent attack workers
// against one hot-swappable serving handle (run under -race in CI) and
// checks the trace is scheduling-independent.
func TestAttackAgainstSwappableDeterministic(t *testing.T) {
	_, hardened, ds := trainHardenedPair(t, "Random Forest")
	sw := NewSwappable("v1", hardened)
	samples := flaggedPhishing(t, hardened, ds, 8)
	if len(samples) == 0 {
		t.Skip("hardened model flagged nothing in the corpus slice")
	}
	cfg := AttackConfig{Seed: 3, Budget: 16}
	seq, err := RunAttack(sw, samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunAttack(sw, samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("attack against Swappable differs across worker counts")
	}
	if sw.AdversaryStats().Scored == 0 {
		t.Fatal("Swappable did not delegate AdversaryStats to its champion")
	}
}

// TestVerdictWireJSONCompat is the leak check: with telemetry off, contract
// and tx wire verdicts must serialize byte-for-byte as they did before the
// evasion fields existed.
func TestVerdictWireJSONCompat(t *testing.T) {
	cv := toWire(Verdict{Label: Phishing, Confidence: 0.75, ModelName: "Random Forest"})
	b, err := json.Marshal(cv)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"label":"phishing","phishing":true,"confidence":0.75,"model":"Random Forest"}`
	if string(b) != want {
		t.Fatalf("contract verdict JSON changed:\n got %s\nwant %s", b, want)
	}

	tv := txToWire(TxVerdict{Verdict: Verdict{Label: Phishing, Confidence: 0.9, ModelName: "m", ModelVersion: "v1"}, PayloadProb: 0.5, CodeProb: 0.8})
	b, err = json.Marshal(tv)
	if err != nil {
		t.Fatal(err)
	}
	want = `{"label":"phishing","phishing":true,"confidence":0.9,"model":"m","model_version":"v1","modality":"tx","payload_prob":0.5,"code_prob":0.8}`
	if string(b) != want {
		t.Fatalf("tx verdict JSON changed:\n got %s\nwant %s", b, want)
	}

	// And when telemetry IS on, the new fields appear under their own keys
	// without disturbing the old ones.
	cv = toWire(Verdict{Label: Benign, Confidence: 0.8, ModelName: "m", DeadCodeRatio: 0.5, ScoreDivergence: 0.25, EvasionSuspect: true})
	b, err = json.Marshal(cv)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"dead_code_ratio":0.5`, `"score_divergence":0.25`, `"evasion_suspect":true`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("telemetry verdict JSON missing %s: %s", key, b)
		}
	}

	// fromWire inverts toWire: a verdict of either label, versioned and
	// carrying all three telemetry fields, survives the round trip whole.
	for _, v := range []Verdict{
		{Label: Phishing, Confidence: 0.75, ModelName: "m", ModelVersion: "v2", DeadCodeRatio: 0.5, ScoreDivergence: 0.25, EvasionSuspect: true},
		{Label: Benign, Confidence: 0.8, ModelName: "m", ModelVersion: "v2", DeadCodeRatio: 0.125, ScoreDivergence: 0.0625, EvasionSuspect: true},
	} {
		if got := fromWire(toWire(v)); got != v {
			t.Fatalf("fromWire(toWire(v)) = %+v, want %+v", got, v)
		}
	}
}

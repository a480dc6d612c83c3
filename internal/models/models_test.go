package models

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/phishinghook/phishinghook/internal/dataset"
	"github.com/phishinghook/phishinghook/internal/features"
	"github.com/phishinghook/phishinghook/internal/synth"
)

// tinyNeural keeps neural fits to milliseconds for unit tests.
func tinyNeural(seed int64) NeuralConfig {
	return NeuralConfig{
		Seed: seed, Epochs: 1, LR: 2e-3, Batch: 8,
		Dim: 8, Heads: 2, Blocks: 1, SeqLen: 24, Stride: 16, MaxWindows: 2,
		ImageSide: 8, Patch: 4, Hidden: 8, VocabCap: 128,
	}
}

func smallDataset(t testing.TB, n int, seed int64) *dataset.Dataset {
	t.Helper()
	g := synth.NewGenerator(synth.DefaultConfig(seed))
	ds := &dataset.Dataset{}
	for i := 0; i < n; i++ {
		cls, lbl := synth.Benign, dataset.Benign
		if i%2 == 0 {
			cls, lbl = synth.Phishing, dataset.Phishing
		}
		ds.Samples = append(ds.Samples, dataset.Sample{
			Address: fmt.Sprint(i), Bytecode: g.Contract(cls, i%synth.NumMonths),
			Label: lbl, Month: i % synth.NumMonths,
		})
	}
	return ds
}

func TestRegistryHasSixteenModels(t *testing.T) {
	specs := AllSpecs()
	if len(specs) != 16 {
		t.Fatalf("registry has %d models, want 16", len(specs))
	}
	counts := map[Family]int{}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate model name %q", s.Name)
		}
		names[s.Name] = true
		counts[s.Family]++
	}
	if counts[HSC] != 7 || counts[VM] != 3 || counts[LM] != 5 || counts[VDM] != 1 {
		t.Errorf("family counts = %v, want HSC 7 / VM 3 / LM 5 / VDM 1", counts)
	}
	// Table II best model must be present.
	if _, err := SpecByName("Random Forest"); err != nil {
		t.Error(err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Error("unknown model resolved")
	}
}

// TestRegistryMemoizationIsolation: AllSpecs is memoized behind sync.Once,
// so mutating a returned slice must not corrupt later calls or the
// SpecByName index.
func TestRegistryMemoizationIsolation(t *testing.T) {
	a := AllSpecs()
	a[0] = Spec{Name: "clobbered"}
	a = append(a[:1], a...) // and grow it for good measure
	_ = a
	b := AllSpecs()
	if b[0].Name != "Random Forest" {
		t.Fatalf("registry corrupted by caller mutation: first spec %q", b[0].Name)
	}
	s, err := SpecByName("Random Forest")
	if err != nil || s.New == nil || s.FeatConfig == nil {
		t.Fatalf("SpecByName after mutation: %+v err=%v", s, err)
	}
	if _, err := SpecByName("clobbered"); err == nil {
		t.Fatal("mutated name leaked into the index")
	}
	// Parallel resolution is race-free (meaningful under -race).
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				if _, err := SpecByName("XGBoost"); err != nil {
					t.Error(err)
					return
				}
				AllSpecs()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

func TestEveryModelFitsAndPredicts(t *testing.T) {
	train := smallDataset(t, 40, 1)
	test := smallDataset(t, 12, 2)
	for _, spec := range AllSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			m := spec.New(3, tinyNeural(3))
			if m.Name() != spec.Name {
				t.Errorf("Name() = %q, spec name %q", m.Name(), spec.Name)
			}
			if m.Family() != spec.Family {
				t.Errorf("Family() = %v, spec family %v", m.Family(), spec.Family)
			}
			if err := m.Fit(train); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			pred, err := m.Predict(test)
			if err != nil {
				t.Fatalf("Predict: %v", err)
			}
			if len(pred) != test.Len() {
				t.Fatalf("got %d predictions for %d samples", len(pred), test.Len())
			}
			for _, p := range pred {
				if p != 0 && p != 1 {
					t.Fatalf("prediction %d outside {0,1}", p)
				}
			}
		})
	}
}

func TestPredictBeforeFitErrors(t *testing.T) {
	test := smallDataset(t, 6, 4)
	for _, spec := range AllSpecs() {
		m := spec.New(1, tinyNeural(1))
		if _, err := m.Predict(test); err == nil {
			t.Errorf("%s: Predict before Fit succeeded", spec.Name)
		}
	}
}

func TestRandomForestLearnsCalibratedCorpus(t *testing.T) {
	train := smallDataset(t, 300, 5)
	test := smallDataset(t, 100, 6)
	m := NewRandomForest(7)
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i, p := range pred {
		if p == int(test.Samples[i].Label) {
			ok++
		}
	}
	if acc := float64(ok) / float64(len(pred)); acc < 0.85 {
		t.Errorf("RF accuracy %.3f < 0.85 on calibrated corpus", acc)
	}
	if m.Forest() == nil {
		t.Error("Forest() accessor returned nil after fit")
	}
	if m.Histogram() == nil {
		t.Error("Histogram() accessor returned nil after fit")
	}
}

func TestHSCDeterminism(t *testing.T) {
	train := smallDataset(t, 80, 8)
	test := smallDataset(t, 30, 9)
	for _, mk := range []func() Classifier{
		func() Classifier { return NewRandomForest(42) },
		func() Classifier { return NewXGBoost(42) },
		func() Classifier { return NewSVM(42) },
	} {
		m1, m2 := mk(), mk()
		if err := m1.Fit(train); err != nil {
			t.Fatal(err)
		}
		if err := m2.Fit(train); err != nil {
			t.Fatal(err)
		}
		p1, _ := m1.Predict(test)
		p2, _ := m2.Predict(test)
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("%s: same-seed models disagree at %d", m1.Name(), i)
			}
		}
	}
}

func TestVariantString(t *testing.T) {
	if Alpha.String() != "α" || Beta.String() != "β" {
		t.Error("variant strings wrong")
	}
}

func TestFamilyString(t *testing.T) {
	for f, want := range map[Family]string{
		HSC: "Histogram", VM: "Vision", LM: "Language", VDM: "Vulnerability",
	} {
		if f.String() != want {
			t.Errorf("%d.String() = %q, want %q", f, f.String(), want)
		}
	}
}

func TestVulnClassCoversAllClasses(t *testing.T) {
	g := synth.NewGenerator(synth.DefaultConfig(10))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		cls := synth.Benign
		if i%2 == 0 {
			cls = synth.Phishing
		}
		c := vulnClass(g.Contract(cls, i%synth.NumMonths))
		if c < 0 || c >= numVulnClasses {
			t.Fatalf("vulnClass = %d outside [0,%d)", c, numVulnClasses)
		}
		seen[c] = true
	}
	if len(seen) < 3 {
		t.Errorf("vulnClass only produced %d distinct classes over 200 contracts", len(seen))
	}
}

func TestBetaVariantHandlesLongContracts(t *testing.T) {
	// A contract much longer than SeqLen must still train and predict via
	// sliding windows.
	g := synth.NewGenerator(synth.DefaultConfig(11))
	ds := &dataset.Dataset{}
	for i := 0; i < 10; i++ {
		cls, lbl := synth.Benign, dataset.Benign
		if i%2 == 0 {
			cls, lbl = synth.Phishing, dataset.Phishing
		}
		ds.Samples = append(ds.Samples, dataset.Sample{
			Address: fmt.Sprint(i), Bytecode: g.Contract(cls, 0), Label: lbl,
		})
	}
	m := NewGPT2(Beta, tinyNeural(12))
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != ds.Len() {
		t.Fatal("prediction count mismatch")
	}
	_ = rand.Int
}

// TestHSCUnmarshalRefusesSplitPastFeaturizer: a saved tree ensemble that
// splits on a feature its featurizer's vectors do not have must fail to
// load rather than panic at score time.
func TestHSCUnmarshalRefusesSplitPastFeaturizer(t *testing.T) {
	train := smallDataset(t, 60, 8)
	for _, mk := range []func(int64) Classifier{
		func(seed int64) Classifier { return NewRandomForest(seed) },
		NewXGBoost,
	} {
		m := mk(1).(*hscModel)
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
		feat, err := features.MarshalFeaturizer(m.fz)
		if err != nil {
			t.Fatal(err)
		}
		// A back-end fitted on rows one column wider than the featurizer's,
		// where only that last column varies, splits on it alone.
		d := m.fz.Dim()
		X := make([][]float64, 40)
		y := make([]int, len(X))
		for i := range X {
			X[i] = make([]float64, d+1)
			X[i][d], y[i] = float64(i), i%2
		}
		blob, err := encodeState(hscState{Feat: feat, Backend: m.train(X, y)})
		if err != nil {
			t.Fatal(err)
		}
		if err := mk(1).(Persistable).UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: a split on feature %d of a %d-wide featurizer loaded", m.Name(), d, d)
		}
	}
}

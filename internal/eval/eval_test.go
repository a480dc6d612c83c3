package eval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/phishinghook/phishinghook/internal/dataset"
	"github.com/phishinghook/phishinghook/internal/models"
	"github.com/phishinghook/phishinghook/internal/synth"
)

func TestComputeKnownConfusion(t *testing.T) {
	pred := []int{1, 1, 0, 0, 1, 0}
	truth := []int{1, 0, 0, 1, 1, 0}
	m, err := Compute(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if m.TP != 2 || m.FP != 1 || m.TN != 2 || m.FN != 1 {
		t.Fatalf("confusion = TP%d FP%d TN%d FN%d", m.TP, m.FP, m.TN, m.FN)
	}
	if math.Abs(m.Accuracy-4.0/6) > 1e-12 {
		t.Errorf("accuracy = %f", m.Accuracy)
	}
	if math.Abs(m.Precision-2.0/3) > 1e-12 {
		t.Errorf("precision = %f", m.Precision)
	}
	if math.Abs(m.Recall-2.0/3) > 1e-12 {
		t.Errorf("recall = %f", m.Recall)
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute([]int{1}, []int{1, 0}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Compute(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestF1IsHarmonicMeanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		pred := make([]int, n)
		truth := make([]int, n)
		for i := range pred {
			pred[i] = rng.Intn(2)
			truth[i] = rng.Intn(2)
		}
		m, err := Compute(pred, truth)
		if err != nil {
			return false
		}
		if m.Precision+m.Recall == 0 {
			return m.F1 == 0
		}
		want := 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
		return math.Abs(m.F1-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAUT(t *testing.T) {
	tests := []struct {
		series []float64
		want   float64
	}{
		{nil, 0},
		{[]float64{0.8}, 0.8},
		{[]float64{1, 1, 1}, 1},
		{[]float64{1, 0}, 0.5},
		{[]float64{0.9, 0.8, 0.7}, 0.8},
	}
	for i, tt := range tests {
		if got := AUT(tt.series); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("case %d: AUT = %f, want %f", i, got, tt.want)
		}
	}
}

func TestAUTBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		series := make([]float64, len(raw))
		for i, v := range raw {
			series[i] = math.Mod(math.Abs(v), 1)
		}
		a := AUT(series)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAUC(t *testing.T) {
	labels := []int{0, 0, 1, 1}
	if got := AUC([]float64{0.1, 0.2, 0.8, 0.9}, labels); got != 1 {
		t.Fatalf("perfect ranking AUC = %v, want 1", got)
	}
	if got := AUC([]float64{0.9, 0.8, 0.2, 0.1}, labels); got != 0 {
		t.Fatalf("reversed ranking AUC = %v, want 0", got)
	}
	if got := AUC([]float64{0.5, 0.5, 0.5, 0.5}, labels); got != 0.5 {
		t.Fatalf("all-tied AUC = %v, want 0.5", got)
	}
	if got := AUC([]float64{0.1, 0.9}, []int{1, 1}); got != 0.5 {
		t.Fatalf("single-class AUC = %v, want 0.5", got)
	}
}

// testDataset builds a small synthetic corpus.
func testDataset(t testing.TB, n int, seed int64) *dataset.Dataset {
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

func rfSpec() models.Spec {
	return models.Spec{
		Name:   "Random Forest",
		Family: models.HSC,
		New:    func(s int64, _ models.NeuralConfig) models.Classifier { return models.NewRandomForest(s) },
	}
}

func TestCrossValidateRandomForest(t *testing.T) {
	ds := testDataset(t, 200, 1)
	res, err := CrossValidate(rfSpec(), models.DefaultNeuralConfig(1), ds, CVConfig{Folds: 4, Runs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 8 {
		t.Fatalf("got %d trials, want 8 (4 folds x 2 runs)", len(res.Trials))
	}
	m := res.Mean()
	if m.Accuracy < 0.8 {
		t.Errorf("RF CV accuracy %.3f < 0.8 on calibrated corpus", m.Accuracy)
	}
	if res.MeanTrainTime() <= 0 || res.MeanInferTime() <= 0 {
		t.Error("timings not captured")
	}
	series := res.MetricSeries("accuracy")
	if len(series) != 8 {
		t.Error("metric series length mismatch")
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	ds := testDataset(t, 120, 2)
	cfg := models.DefaultNeuralConfig(1)
	r1, err := CrossValidate(rfSpec(), cfg, ds, CVConfig{Folds: 3, Runs: 1, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CrossValidate(rfSpec(), cfg, ds, CVConfig{Folds: 3, Runs: 1, Seed: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Trials {
		if r1.Trials[i].Metrics != r2.Trials[i].Metrics {
			t.Fatalf("trial %d differs across worker counts", i)
		}
	}
}

func TestCrossValidateValidation(t *testing.T) {
	ds := testDataset(t, 40, 3)
	cfg := models.DefaultNeuralConfig(1)
	if _, err := CrossValidate(rfSpec(), cfg, ds, CVConfig{Folds: 1, Runs: 1}); err == nil {
		t.Error("folds=1 accepted")
	}
	if _, err := CrossValidate(rfSpec(), cfg, ds, CVConfig{Folds: 3, Runs: 0}); err == nil {
		t.Error("runs=0 accepted")
	}
}

func TestScalabilityRunner(t *testing.T) {
	ds := testDataset(t, 200, 4)
	pts, err := Scalability([]models.Spec{rfSpec()}, models.DefaultNeuralConfig(1), ds,
		[]float64{1.0 / 3, 2.0 / 3, 1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Split <= pts[i-1].Split {
			t.Error("splits out of order")
		}
	}
	// Test set is fixed, so results are comparable; the full split should
	// not be dramatically worse than the third.
	if pts[2].Metrics.Accuracy+0.15 < pts[0].Metrics.Accuracy {
		t.Errorf("full-split accuracy %.3f much worse than third-split %.3f",
			pts[2].Metrics.Accuracy, pts[0].Metrics.Accuracy)
	}
}

func TestTimeResistanceRunner(t *testing.T) {
	ds := testDataset(t, 520, 5)
	res, err := TimeResistance(rfSpec(), models.DefaultNeuralConfig(1), ds, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != synth.NumMonths-4 {
		t.Fatalf("got %d test months, want %d", len(res.Points), synth.NumMonths-4)
	}
	if res.AUT <= 0 || res.AUT > 1 {
		t.Errorf("AUT = %f outside (0,1]", res.AUT)
	}
	for i, p := range res.Points {
		if p.Month != i+1 {
			t.Errorf("point %d has month %d, want %d", i, p.Month, i+1)
		}
	}
}

func TestTimeResistanceValidation(t *testing.T) {
	ds := testDataset(t, 60, 6)
	if _, err := TimeResistance(rfSpec(), models.DefaultNeuralConfig(1), ds, 0, 1); err == nil {
		t.Error("trainMonths=0 accepted")
	}
	if _, err := TimeResistance(rfSpec(), models.DefaultNeuralConfig(1), ds, synth.NumMonths, 1); err == nil {
		t.Error("trainMonths=NumMonths accepted")
	}
}

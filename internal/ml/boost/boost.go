// Package boost implements second-order gradient boosting over regression
// trees with logistic loss, in the three flavours the paper benchmarks as
// HSC back-ends: level-wise exact trees ("XGBoost"), histogram-binned
// leaf-wise trees ("LightGBM") and oblivious trees ("CatBoost"). The three
// share one gradient/hessian framework and differ only in tree induction,
// mirroring how the real libraries differ.
package boost

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/phishinghook/phishinghook/internal/mat"
	"github.com/phishinghook/phishinghook/internal/ml/ensemble"
)

// Style selects the tree-induction flavour.
type Style int

// Boosting styles.
const (
	// XGB grows level-wise depth-bounded trees with exact greedy splits.
	XGB Style = iota + 1
	// LGBM grows leaf-wise trees over histogram-binned features.
	LGBM
	// Cat grows oblivious (symmetric) trees: one split per level.
	Cat
)

// String implements fmt.Stringer.
func (s Style) String() string {
	switch s {
	case XGB:
		return "xgboost"
	case LGBM:
		return "lightgbm"
	case Cat:
		return "catboost"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// Config controls boosting.
type Config struct {
	// Style selects the flavour (required).
	Style Style
	// Rounds is the number of boosting iterations (default 100).
	Rounds int
	// LearningRate is the shrinkage η (default 0.1).
	LearningRate float64
	// MaxDepth bounds tree depth (default 6; for LGBM it bounds leaves at
	// 2^MaxDepth instead, like num_leaves).
	MaxDepth int
	// Lambda is the L2 leaf regularizer (default 1).
	Lambda float64
	// Gamma is the minimum split gain (default 0).
	Gamma float64
	// Subsample is the per-round row sampling fraction (default 1).
	Subsample float64
	// Bins is the histogram bin count for LGBM (default 32).
	Bins int
	// Seed drives row subsampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 100
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.Lambda <= 0 {
		c.Lambda = 1
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 1
	}
	if c.Bins <= 1 {
		c.Bins = 32
	}
	return c
}

// node of a regression tree (leaf weight in Value when Feature == -1).
type node struct {
	Feature     int
	Threshold   float64
	Left, Right int
	Value       float64
}

type regTree struct{ nodes []node }

func (t *regTree) predict(x []float64) float64 {
	i := 0
	for {
		nd := &t.nodes[i]
		if nd.Feature < 0 {
			return nd.Value
		}
		if x[nd.Feature] <= nd.Threshold {
			i = nd.Left
		} else {
			i = nd.Right
		}
	}
}

// Model is a trained boosted ensemble. trees is the canonical (serialized)
// form; inference runs over a packed copy built once after training or
// deserialization.
type Model struct {
	cfg    Config
	trees  []regTree
	base   float64 // initial log-odds
	layout *ensemble.Layout
}

// Fit trains a boosted classifier on X (n×d) with binary labels y.
func Fit(X [][]float64, y []int, cfg Config) *Model {
	cfg = cfg.withDefaults()
	if cfg.Style != XGB && cfg.Style != LGBM && cfg.Style != Cat {
		panic(fmt.Sprintf("boost: invalid style %d", int(cfg.Style)))
	}
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("boost: bad training shape n=%d labels=%d", len(X), len(y)))
	}
	n := len(X)
	pos := 0
	for _, v := range y {
		pos += v
	}
	// Initial prediction: log-odds of the base rate (clamped).
	p := math.Min(math.Max(float64(pos)/float64(n), 1e-6), 1-1e-6)
	m := &Model{cfg: cfg, base: math.Log(p / (1 - p))}

	rng := rand.New(rand.NewSource(cfg.Seed))
	margins := make([]float64, n)
	for i := range margins {
		margins[i] = m.base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)

	var binner *histBinner
	if cfg.Style == LGBM {
		binner = fitBins(X, cfg.Bins)
	}

	for round := 0; round < cfg.Rounds; round++ {
		// Gradient/hessian refresh and the post-round margin update are
		// embarrassingly parallel over samples; tree induction itself stays
		// sequential (each round depends on the previous margins).
		parallelFor(n, func(i int) {
			pi := mat.Sigmoid(margins[i])
			grad[i] = pi - float64(y[i])
			hess[i] = pi * (1 - pi)
		})
		idx := sampleRows(n, cfg.Subsample, rng)
		var t regTree
		switch cfg.Style {
		case XGB:
			t = buildExact(X, grad, hess, idx, cfg)
		case LGBM:
			t = buildLeafwise(X, grad, hess, idx, cfg, binner)
		case Cat:
			t = buildOblivious(X, grad, hess, idx, cfg)
		}
		m.trees = append(m.trees, t)
		parallelFor(n, func(i int) {
			margins[i] += cfg.LearningRate * t.predict(X[i])
		})
	}
	var err error
	if m.layout, err = pack(m.trees); err != nil {
		panic(fmt.Sprintf("boost: fitted model does not pack: %v", err))
	}
	return m
}

func sampleRows(n int, frac float64, rng *rand.Rand) []int {
	if frac >= 1 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	k := int(float64(n) * frac)
	if k < 1 {
		k = 1
	}
	perm := rng.Perm(n)
	return perm[:k]
}

// PredictProba returns P(y=1|x).
func (m *Model) PredictProba(x []float64) float64 {
	return mat.Sigmoid(m.layout.Margin(x, m.base, m.cfg.LearningRate))
}

// Width returns 1 + the largest feature index a split reads.
func (m *Model) Width() int { return m.layout.Width() }

// Predict thresholds PredictProba at 0.5.
func (m *Model) Predict(x []float64) int {
	if m.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// Rounds returns the number of trees in the ensemble.
func (m *Model) Rounds() int { return len(m.trees) }

// leafWeight is the Newton step -G/(H+λ).
func leafWeight(g, h, lambda float64) float64 { return -g / (h + lambda) }

// splitGain is the XGBoost gain formula.
func splitGain(gl, hl, gr, hr, lambda float64) float64 {
	g, h := gl+gr, hl+hr
	return 0.5 * (gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - g*g/(h+lambda))
}

package tree

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"github.com/phishinghook/phishinghook/internal/ml/ensemble"
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// MaxDepth bounds each tree (default unbounded, like scikit-learn).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// MaxFeatures per split; 0 selects sqrt(d), scikit-learn's default.
	MaxFeatures int
	// Seed drives bootstrap and feature sampling.
	Seed int64
	// Workers bounds training parallelism (default GOMAXPROCS).
	Workers int
}

// Forest is a trained random forest. TreeList is the canonical (serialized,
// SHAP-visible) form; inference runs over a packed copy built once after
// training or deserialization.
type Forest struct {
	TreeList []*Tree
	nFeat    int
	layout   *ensemble.Layout
}

// FitForest trains a random forest with bootstrap aggregation. Trees are
// trained in parallel but the ensemble is identical for a given seed
// regardless of worker count (each tree owns a seed derived from its index).
func FitForest(X [][]float64, y []int, cfg ForestConfig) *Forest {
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("tree: bad forest training shape n=%d labels=%d", len(X), len(y)))
	}
	if cfg.Trees <= 0 {
		cfg.Trees = 100
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	d := len(X[0])
	maxFeat := cfg.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = int(math.Sqrt(float64(d)))
		if maxFeat < 1 {
			maxFeat = 1
		}
	}
	f := &Forest{TreeList: make([]*Tree, cfg.Trees), nFeat: d}

	// The rank tables are the only training state the trees share; they
	// are read-only here and garbage once FitForest returns.
	n := len(X)
	t := newRankTables(X, cfg.Workers)
	tcfg := Config{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, MaxFeatures: maxFeat}
	parallelChunks(cfg.Trees, cfg.Workers, func(lo, hi int) {
		b := newBuilder(t, tcfg, nil)
		for k := lo; k < hi; k++ {
			// Each tree owns a seed derived from its index: it draws its
			// bootstrap, then its feature subsets, from one stream.
			b.rng = rand.New(rand.NewSource(cfg.Seed + int64(k)*7919))
			for i := range b.rows {
				b.rows[i] = int32(b.rng.Intn(n))
			}
			f.TreeList[k] = b.fit(y)
		}
	})
	var err error
	if f.layout, err = pack(f.TreeList); err != nil {
		panic(fmt.Sprintf("tree: fitted forest does not pack: %v", err))
	}
	return f
}

// pack builds the inference layout from the pointer-tree form.
func pack(trees []*Tree) (*ensemble.Layout, error) {
	sizes := make([]int, len(trees))
	for k, t := range trees {
		sizes[k] = len(t.Nodes)
	}
	return ensemble.Pack(sizes, func(k, i int) ensemble.Node {
		nd := &trees[k].Nodes[i]
		return ensemble.Node{Feature: nd.Feature, Threshold: nd.Threshold, Left: nd.Left, Right: nd.Right, Value: nd.Value}
	})
}

// PredictProba averages tree probabilities for x.
func (f *Forest) PredictProba(x []float64) float64 {
	return f.layout.Margin(x, 0, 1) / float64(len(f.TreeList))
}

// Width returns 1 + the largest feature index a split reads.
func (f *Forest) Width() int { return f.layout.Width() }

// Predict thresholds PredictProba at 0.5.
func (f *Forest) Predict(x []float64) int {
	if f.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// PredictAll classifies a batch in parallel, preserving order.
func (f *Forest) PredictAll(X [][]float64) []int {
	out := make([]int, len(X))
	parallelFor(len(X), func(i int) { out[i] = f.Predict(X[i]) })
	return out
}

// NumFeatures returns the training feature dimension.
func (f *Forest) NumFeatures() int { return f.nFeat }

// parallelFor runs fn(i) for i in [0,n) across GOMAXPROCS goroutines.
func parallelFor(n int, fn func(int)) {
	parallelChunks(n, runtime.GOMAXPROCS(0), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// parallelChunks splits [0,n) into at most workers contiguous chunks and
// runs fn on each in its own goroutine (inline when there is one chunk).
func parallelChunks(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

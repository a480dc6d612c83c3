package tree

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// blobs makes two separable Gaussian clusters with some overlap.
func blobs(n int, sep float64, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		cls := i % 2
		y[i] = cls
		off := -sep
		if cls == 1 {
			off = sep
		}
		X[i] = []float64{off + rng.NormFloat64(), off + rng.NormFloat64(), rng.NormFloat64()}
	}
	return X, y
}

func accuracy(pred, y []int) float64 {
	ok := 0
	for i := range y {
		if pred[i] == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(y))
}

func TestTreeFitsTrainingSetPerfectlyWhenSeparable(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}, {10}, {11}, {12}, {13}}
	y := []int{0, 0, 0, 0, 1, 1, 1, 1}
	tr := Fit(X, y, Config{}, nil)
	for i, x := range X {
		p := tr.PredictProba(x)
		if (p >= 0.5) != (y[i] == 1) {
			t.Errorf("sample %d misclassified (p=%f)", i, p)
		}
	}
}

func TestTreePureLeafStopsEarly(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	tr := Fit(X, y, Config{}, nil)
	if len(tr.Nodes) != 1 {
		t.Errorf("pure node grew %d nodes, want 1", len(tr.Nodes))
	}
	if tr.Nodes[0].Value != 1 {
		t.Errorf("leaf value %f, want 1", tr.Nodes[0].Value)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	X, y := blobs(200, 0.5, 1)
	tr := Fit(X, y, Config{MaxDepth: 3}, nil)
	if d := tr.Depth(); d > 3 {
		t.Errorf("depth %d exceeds MaxDepth 3", d)
	}
}

func TestTreeMinLeaf(t *testing.T) {
	X, y := blobs(100, 0.3, 2)
	tr := Fit(X, y, Config{MinLeaf: 10}, nil)
	for _, nd := range tr.Nodes {
		if nd.Feature < 0 && nd.Cover < 10 {
			t.Errorf("leaf with cover %f < MinLeaf 10", nd.Cover)
		}
	}
}

func TestTreeConstantFeaturesNoSplit(t *testing.T) {
	X := [][]float64{{5, 5}, {5, 5}, {5, 5}, {5, 5}}
	y := []int{0, 1, 0, 1}
	tr := Fit(X, y, Config{}, nil)
	if len(tr.Nodes) != 1 {
		t.Errorf("constant features grew %d nodes, want 1 (no valid split)", len(tr.Nodes))
	}
}

func TestForestBeatsChance(t *testing.T) {
	X, y := blobs(400, 1.0, 3)
	Xtest, ytest := blobs(200, 1.0, 4)
	f := FitForest(X, y, ForestConfig{Trees: 30, Seed: 1})
	acc := accuracy(f.PredictAll(Xtest), ytest)
	if acc < 0.85 {
		t.Errorf("forest test accuracy %.3f < 0.85 on separable blobs", acc)
	}
}

func TestForestDeterministicAcrossWorkerCounts(t *testing.T) {
	X, y := blobs(150, 0.7, 5)
	f1 := FitForest(X, y, ForestConfig{Trees: 11, Seed: 42, Workers: 1})
	f2 := FitForest(X, y, ForestConfig{Trees: 11, Seed: 42, Workers: 8})
	for i := 0; i < len(X); i++ {
		if f1.PredictProba(X[i]) != f2.PredictProba(X[i]) {
			t.Fatalf("worker count changed predictions at sample %d", i)
		}
	}
}

func TestForestProbaInUnitIntervalProperty(t *testing.T) {
	X, y := blobs(100, 0.5, 6)
	f := FitForest(X, y, ForestConfig{Trees: 7, Seed: 3})
	q := func(a, b, c float64) bool {
		p := f.PredictProba([]float64{a, b, c})
		return p >= 0 && p <= 1
	}
	if err := quick.Check(q, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestForestCoverConservation(t *testing.T) {
	// Every internal node's cover equals the sum of its children's —
	// TreeSHAP relies on this invariant.
	X, y := blobs(120, 0.6, 7)
	f := FitForest(X, y, ForestConfig{Trees: 5, Seed: 9})
	for _, tr := range f.TreeList {
		for _, nd := range tr.Nodes {
			if nd.Feature < 0 {
				continue
			}
			sum := tr.Nodes[nd.Left].Cover + tr.Nodes[nd.Right].Cover
			if sum != nd.Cover {
				t.Fatalf("cover %f != children sum %f", nd.Cover, sum)
			}
		}
	}
}

func TestFitPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched shapes")
		}
	}()
	Fit([][]float64{{1}}, []int{0, 1}, Config{}, nil)
}

func BenchmarkForestFit(b *testing.B) {
	X, y := blobs(500, 0.8, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FitForest(X, y, ForestConfig{Trees: 20, Seed: int64(i)})
	}
}

// refBuilder is the split search as it stood before the rank tables: rows
// are row-major [][]float64 and every node sorts each candidate feature with
// sort.Slice. It shares no code with the package's builder; it is the oracle
// the rank-counted search must match node for node.
type refBuilder struct {
	X    [][]float64
	y    []int
	cfg  Config
	rng  *rand.Rand
	tree *Tree
}

// refFit is the reference Fit.
func refFit(X [][]float64, y []int, cfg Config, rng *rand.Rand) *Tree {
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	t := &Tree{}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	b := &refBuilder{X: X, y: y, cfg: cfg, rng: rng, tree: t}
	b.grow(idx, 0)
	return t
}

// refFitForest replays FitForest's per-tree seeding and bootstrap serially
// and grows every tree with the reference builder.
func refFitForest(X [][]float64, y []int, cfg ForestConfig) []*Tree {
	maxFeat := cfg.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = max(1, int(math.Sqrt(float64(len(X[0])))))
	}
	trees := make([]*Tree, cfg.Trees)
	for t := range trees {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(t)*7919))
		n := len(X)
		bx := make([][]float64, n)
		by := make([]int, n)
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = X[j]
			by[i] = y[j]
		}
		trees[t] = refFit(bx, by, Config{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, MaxFeatures: maxFeat}, rng)
	}
	return trees
}

func (b *refBuilder) grow(idx []int, depth int) int {
	pos := 0
	for _, i := range idx {
		pos += b.y[i]
	}
	n := len(idx)
	self := len(b.tree.Nodes)
	b.tree.Nodes = append(b.tree.Nodes, Node{Feature: -1, Value: float64(pos) / float64(n), Cover: float64(n)})
	if pos == 0 || pos == n || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) || n < 2*b.cfg.MinLeaf {
		return self
	}
	feat, thr, ok := b.bestSplit(idx)
	if !ok {
		return self
	}
	var left, right []int
	for _, i := range idx {
		if b.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return self
	}
	b.tree.Nodes[self].Feature = feat
	b.tree.Nodes[self].Threshold = thr
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.tree.Nodes[self].Left = l
	b.tree.Nodes[self].Right = r
	return self
}

func (b *refBuilder) bestSplit(idx []int) (feature int, threshold float64, ok bool) {
	d := len(b.X[0])
	feats := make([]int, d)
	for i := range feats {
		feats[i] = i
	}
	if m := b.cfg.MaxFeatures; m > 0 && m < d && b.rng != nil {
		feats = b.rng.Perm(d)[:m]
	}
	n := float64(len(idx))
	bestGain := 1e-12
	sorted := make([]int, len(idx))
	for _, f := range feats {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, c int) bool { return b.X[sorted[a]][f] < b.X[sorted[c]][f] })
		totalPos := 0
		for _, i := range sorted {
			totalPos += b.y[i]
		}
		parentGini := refGini(float64(totalPos), n)
		leftPos, leftN := 0, 0.0
		for k := 0; k < len(sorted)-1; k++ {
			i := sorted[k]
			leftPos += b.y[i]
			leftN++
			xv, xn := b.X[i][f], b.X[sorted[k+1]][f]
			if xv == xn {
				continue
			}
			rightN := n - leftN
			gain := parentGini -
				(leftN/n)*refGini(float64(leftPos), leftN) -
				(rightN/n)*refGini(float64(totalPos-leftPos), rightN)
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (xv + xn) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

func refGini(pos, n float64) float64 {
	if n == 0 {
		return 0
	}
	p := pos / n
	return 2 * p * (1 - p)
}

// sameTree reports the first node where got and want differ, comparing
// Threshold, Value and Cover as float64 bits.
func sameTree(got, want *Tree) error {
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("%d nodes, reference has %d", len(got.Nodes), len(want.Nodes))
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.Feature != w.Feature || g.Left != w.Left || g.Right != w.Right ||
			math.Float64bits(g.Threshold) != math.Float64bits(w.Threshold) ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
			math.Float64bits(g.Cover) != math.Float64bits(w.Cover) {
			return fmt.Errorf("node %d = %+v, reference %+v", i, g, w)
		}
	}
	return nil
}

// matrix draws an n×d matrix whose entry (i, f) is gen(i, f) and labels
// that lean on the first two features, so trees grow past the root.
func matrix(n, d int, seed int64, gen func(rng *rand.Rand, i, f int) float64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		X[i] = make([]float64, d)
		for f := range X[i] {
			X[i][f] = gen(rng, i, f)
		}
		score := X[i][0] + 0.5*X[i][min(1, d-1)] + rng.NormFloat64()
		if score > 0.5 {
			y[i] = 1
		}
	}
	return X, y
}

// adjacent is 1 plus k units in the last place: midpoints of neighbours
// round onto one of them.
func adjacent(k int) float64 {
	v := 1.0
	for ; k > 0; k-- {
		v = math.Nextafter(v, 2)
	}
	return v
}

// TestFitMatchesReference grows trees with the rank-counted search and with
// the sort.Slice reference from the same seeds and requires identical nodes.
func TestFitMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	signed := []float64{-2, -1, negZero, 0, 0.5, 1}
	cases := []struct {
		name    string
		n, d    int
		gen     func(rng *rand.Rand, i, f int) float64
		relabel func(y []int) // nil keeps matrix's labels
	}{
		{"integer counts with heavy ties", 400, 8, func(rng *rand.Rand, _, f int) float64 {
			return float64(rng.Intn(2 + f%4))
		}, nil},
		{"continuous gaussians (nodes sort: fewer rows than values)", 300, 5, func(rng *rand.Rand, _, _ int) float64 { return rng.NormFloat64() }, nil},
		{"negatives and signed zeros", 300, 6, func(rng *rand.Rand, i, f int) float64 {
			if f == 2 {
				return math.Copysign(0, float64(i%2)-0.5)
			}
			return signed[rng.Intn(len(signed))]
		}, func(y []int) {
			// Most labels follow the sign of feature 2's zero: a search
			// that told -0 from +0 would split there; the reference
			// cannot.
			for i := range y {
				if i%5 != 0 {
					y[i] = i % 2
				}
			}
		}},
		{"constant columns", 200, 6, func(rng *rand.Rand, _, f int) float64 {
			if f%2 == 1 {
				return 7
			}
			return float64(rng.Intn(5))
		}, nil},
		{"duplicate rows", 240, 4, func(rng *rand.Rand, i, f int) float64 {
			return float64((i/3*31 + f*7) % 11) // every row appears three times
		}, nil},
		{"adjacent floats", 200, 3, func(rng *rand.Rand, _, _ int) float64 { return adjacent(rng.Intn(6)) }, nil},
		{"extremes", 200, 3, func(rng *rand.Rand, _, _ int) float64 {
			return []float64{math.Inf(-1), -math.MaxFloat64, 0, math.MaxFloat64, math.Inf(1)}[rng.Intn(5)]
		}, nil},
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{MaxFeatures: 2}},
		{"MinLeaf 3", Config{MinLeaf: 3, MaxFeatures: 2}},
		{"MaxDepth 4", Config{MaxDepth: 4, MaxFeatures: 2}},
	}
	for ci, c := range cases {
		X, y := matrix(c.n, c.d, int64(ci+1), c.gen)
		if c.relabel != nil {
			c.relabel(y)
		}
		for _, cc := range configs {
			seed := int64(100 + ci)
			got := Fit(X, y, cc.cfg, rand.New(rand.NewSource(seed)))
			want := refFit(X, y, cc.cfg, rand.New(rand.NewSource(seed)))
			if err := sameTree(got, want); err != nil {
				t.Errorf("%s, %s: %v", c.name, cc.name, err)
			}
		}
		// nil rng: plain CART over every feature.
		if err := sameTree(Fit(X, y, Config{}, nil), refFit(X, y, Config{}, nil)); err != nil {
			t.Errorf("%s, all features: %v", c.name, err)
		}
		// The forest: bootstrap duplicates, sqrt(d) features, per-tree seeds.
		fcfg := ForestConfig{Trees: 6, Seed: int64(ci), Workers: 3}
		f := FitForest(X, y, fcfg)
		for k, want := range refFitForest(X, y, fcfg) {
			if err := sameTree(f.TreeList[k], want); err != nil {
				t.Errorf("%s, forest tree %d: %v", c.name, k, err)
			}
		}
	}
}

// fuzzAlphabet keeps fuzzed values few, so ties are common, and includes
// the signed zeros and neighbouring floats the threshold arithmetic must
// treat exactly as the reference does.
var fuzzAlphabet = []float64{-3, -1, math.Copysign(0, -1), 0, 0.25, 1, adjacent(1), adjacent(2), 2, 1e300}

// FuzzFitMatchesReference decodes a small matrix, labels and a
// configuration from the fuzz bytes and requires the rank-counted search and
// the reference to grow identical trees, alone and as a forest.
func FuzzFitMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 0, 4, 5, 6, 1, 7, 8, 9, 0})
	f.Add([]byte{5, 9, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 2, 3, 2, 3, 2, 1, 9, 8, 7, 6, 5, 0})
	f.Add([]byte{1, 6, 2, 1, 2, 0, 3, 1, 3, 0, 2, 1, 2, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d := 1 + int(data[0])%6
		opts, data := data[1], data[2:]
		cfg := Config{MinLeaf: 1 + int(opts)%3, MaxDepth: int(opts/3) % 5, MaxFeatures: int(opts/15) % (d + 1)}
		var X [][]float64
		var y []int
		for len(data) >= d+1 && len(X) < 64 {
			row := make([]float64, d)
			for j := range row {
				row[j] = fuzzAlphabet[int(data[j])%len(fuzzAlphabet)]
			}
			X = append(X, row)
			y = append(y, int(data[d])&1)
			data = data[d+1:]
		}
		if len(X) == 0 {
			return
		}
		seed := int64(opts)
		if err := sameTree(Fit(X, y, cfg, rand.New(rand.NewSource(seed))), refFit(X, y, cfg, rand.New(rand.NewSource(seed)))); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		if err := sameTree(Fit(X, y, cfg, nil), refFit(X, y, cfg, nil)); err != nil {
			t.Fatalf("Fit, all features: %v", err)
		}
		fcfg := ForestConfig{Trees: 3, MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, MaxFeatures: cfg.MaxFeatures, Seed: seed, Workers: 2}
		forest := FitForest(X, y, fcfg)
		for k, want := range refFitForest(X, y, fcfg) {
			if err := sameTree(forest.TreeList[k], want); err != nil {
				t.Fatalf("forest tree %d: %v", k, err)
			}
		}
	})
}

// benchShapes are seeded stand-ins for the benchmark's three training
// matrices: opcode histograms (integer counts, a handful of distinct values
// per feature) raw and canonical, and calldata features (counts mixed with
// fractions).
var benchShapes = []struct {
	name string
	n, d int
	gen  func(rng *rand.Rand, i, f int) float64
}{
	{"hist_6926x61", 6926, 61, histogramCount},
	{"hist_6926x256", 6926, 256, histogramCount},
	{"calldata_10452x108", 10452, 108, func(rng *rand.Rand, i, f int) float64 {
		if f%3 == 2 {
			return float64(rng.Intn(24)) / float64(1+rng.Intn(8))
		}
		return histogramCount(rng, i, f)
	}},
}

// histogramCount is a long-tailed opcode count whose scale depends on the
// feature: most features take a few small values, a few take dozens.
func histogramCount(rng *rand.Rand, _, f int) float64 {
	scale := 0.2 + float64(f%7)*float64(f%5)/3
	return math.Floor(rng.ExpFloat64() * scale)
}

var forestSink *Forest

// BenchmarkFitForest fits the default 100-tree forest on each shape; run
// with -benchmem.
func BenchmarkFitForest(b *testing.B) {
	for _, s := range benchShapes {
		X, y := matrix(s.n, s.d, 1, s.gen)
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				forestSink = FitForest(X, y, ForestConfig{Seed: 1})
			}
		})
	}
}

var probaSink float64

// BenchmarkForestPredict scores 2,000 held-out rows in turn on the default
// 100-tree forest fitted to each shape. The rows take different paths, as
// the bytecodes a detector serves do, so the branch predictor cannot learn
// one row's walk; run with -benchmem.
func BenchmarkForestPredict(b *testing.B) {
	for _, s := range benchShapes {
		X, y := matrix(s.n, s.d, 1, s.gen)
		held, _ := matrix(2000, s.d, 2, s.gen)
		f := FitForest(X, y, ForestConfig{Seed: 1})
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				probaSink = f.PredictProba(held[i%len(held)])
			}
		})
	}
}

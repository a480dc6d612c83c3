package boost

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func randomTraining(seed int64, n, d int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
		if X[i][0]-X[i][1] > 0 {
			y[i] = 1
		}
	}
	return X, y
}

// probes returns X's rows, copies of them with the feature of one split set
// to its threshold, to NaN, ±Inf or −0, and rows that hold one of those
// values in every feature.
func probes(X [][]float64, trees []regTree) [][]float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	out := slices.Clone(X)
	for k, tr := range trees {
		for i, nd := range tr.nodes {
			if nd.Feature < 0 {
				continue
			}
			at := slices.Clone(X[(k+i)%len(X)])
			at[nd.Feature] = nd.Threshold
			odd := slices.Clone(X[(k+i+1)%len(X)])
			odd[nd.Feature] = special[i%len(special)]
			out = append(out, at, odd)
		}
	}
	for _, v := range special {
		x := make([]float64, len(X[0]))
		for j := range x {
			x[j] = v
		}
		out = append(out, x)
	}
	return out
}

// TestFlattenedMatchesTrees pins the packed ensemble traversal to the
// canonical per-tree prediction under != for all three styles: on training
// rows and on NaN, ±Inf, −0 and values equal to a threshold, for 1, 7, 8, 9
// and 15 rounds (no full group of eight, one, and one with a tail), and
// with single-leaf trees.
func TestFlattenedMatchesTrees(t *testing.T) {
	X, y := randomTraining(23, 250, 10)
	check := func(name string, m *Model) {
		t.Helper()
		if m.layout == nil {
			t.Fatalf("%s: no packed layout", name)
		}
		for i, x := range probes(X, m.trees) {
			want := m.base
			for _, tr := range m.trees {
				want += m.cfg.LearningRate * tr.predict(x)
			}
			if got := m.layout.Margin(x, m.base, m.cfg.LearningRate); got != want {
				t.Fatalf("%s probe %d: packed margin %v != per-tree %v", name, i, got, want)
			}
		}
	}
	for _, style := range []Style{XGB, LGBM, Cat} {
		for _, rounds := range []int{1, 7, 8, 9, 15} {
			check(fmt.Sprintf("%v, %d rounds", style, rounds), Fit(X, y, Config{Style: style, Rounds: rounds, MaxDepth: 4, Seed: 1}))
		}
		// Single leaves inside a group of eight and in the tail.
		m := Fit(X, y, Config{Style: style, Rounds: 10, MaxDepth: 4, Seed: 1})
		m.trees[3] = regTree{nodes: []node{{Feature: -1, Value: 0.25}}}
		m.trees[9] = regTree{nodes: []node{{Feature: -1, Value: -0.5}}}
		var err error
		if m.layout, err = pack(m.trees); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%v, leaves among splits", style), m)
	}
}

// TestPredictProbaZeroAllocs pins the boosted scoring path at 0 allocs/op.
func TestPredictProbaZeroAllocs(t *testing.T) {
	X, y := randomTraining(13, 200, 10)
	m := Fit(X, y, Config{Style: XGB, Rounds: 20, MaxDepth: 4, Seed: 1})
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		m.PredictProba(X[i%len(X)])
		i++
	}); allocs != 0 {
		t.Fatalf("PredictProba: %v allocs/op, want 0", allocs)
	}
}

// TestGobDecodeRefusesMalformedModel: a saved model whose walk from a root
// would leave the tree, loop or share a node, and an empty tree or model,
// must fail to decode rather than hang or panic at score time.
func TestGobDecodeRefusesMalformedModel(t *testing.T) {
	split := func(f, l, r int) nodeState { return nodeState{Feature: f, Threshold: 0.5, Left: l, Right: r} }
	leaf := nodeState{Feature: -1, Value: 0.1}
	good := []nodeState{split(0, 1, 2), leaf, leaf}
	for _, tc := range []struct {
		name  string
		trees [][]nodeState
	}{
		{"no trees", nil},
		{"tree with no nodes", [][]nodeState{good, nil}},
		{"split pointing at itself", [][]nodeState{{split(0, 0, 0)}}},
		{"child past the tree", [][]nodeState{{split(0, 9, 9)}}},
		{"negative child", [][]nodeState{good, {split(1, -1, 1), leaf}}},
		{"shared child", [][]nodeState{{split(0, 1, 1), leaf}}},
		{"cycle back to the root", [][]nodeState{{split(0, 1, 2), split(1, 0, 2), leaf}}},
		{"feature past int32", [][]nodeState{{split(1<<40, 1, 2), leaf, leaf}}},
	} {
		var buf bytes.Buffer
		s := modelState{Cfg: Config{Style: XGB, LearningRate: 0.1}, Trees: tc.trees}
		if err := gob.NewEncoder(&buf).Encode(s); err != nil {
			t.Fatal(err)
		}
		var m Model
		if err := m.GobDecode(buf.Bytes()); err == nil {
			t.Errorf("%s: decoded with a nil error", tc.name)
		}
	}
}

// TestGobRoundTripRebuildsFlat asserts bytes written by the pre-flattening
// encoder decode into a model whose predictions are identical, and that the
// current encoding still decodes as the legacy state.
func TestGobRoundTripRebuildsFlat(t *testing.T) {
	X, y := randomTraining(31, 200, 6)
	m := Fit(X, y, Config{Style: XGB, Rounds: 12, MaxDepth: 3, Seed: 2})

	// The legacy wire bytes: modelState carries cfg, base and per-tree node
	// slices — no flattened layout.
	s := modelState{Cfg: m.cfg, Base: m.base, Trees: make([][]nodeState, len(m.trees))}
	for i, tr := range m.trees {
		ns := make([]nodeState, len(tr.nodes))
		for j, nd := range tr.nodes {
			ns[j] = nodeState(nd)
		}
		s.Trees[i] = ns
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := back.GobDecode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if back.layout == nil {
		t.Fatal("GobDecode did not rebuild the packed layout")
	}
	for i, x := range X {
		if got, want := back.PredictProba(x), m.PredictProba(x); got != want {
			t.Fatalf("sample %d: decoded proba %v != original %v", i, got, want)
		}
	}

	enc, err := m.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var legacy modelState
	if err := gob.NewDecoder(bytes.NewReader(enc)).Decode(&legacy); err != nil {
		t.Fatalf("new encoding no longer decodes as the legacy state: %v", err)
	}
	if len(legacy.Trees) != len(m.trees) {
		t.Fatalf("legacy decode sees %d trees, want %d", len(legacy.Trees), len(m.trees))
	}
}

// TestParallelTrainingDeterministic pins that the parallel gradient refresh
// and split scan did not change the induced ensemble: training twice (and
// with GOMAXPROCS=1 semantics via the sequential fallback on tiny data)
// yields byte-identical models.
func TestParallelTrainingDeterministic(t *testing.T) {
	X, y := randomTraining(41, 300, 9)
	for _, style := range []Style{XGB, LGBM, Cat} {
		a := Fit(X, y, Config{Style: style, Rounds: 10, MaxDepth: 4, Seed: 7, Subsample: 0.8})
		b := Fit(X, y, Config{Style: style, Rounds: 10, MaxDepth: 4, Seed: 7, Subsample: 0.8})
		ea, err := a.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		eb, err := b.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ea, eb) {
			t.Fatalf("%v: training is no longer deterministic", style)
		}
	}
}

var probaSink float64

// BenchmarkBoostPredict scores 2,000 held-out rows in turn on each style,
// fitted as the served models are to a 3,000×70 stand-in. The rows take
// different paths, so the branch predictor cannot learn one row's walk.
func BenchmarkBoostPredict(b *testing.B) {
	X, y := randomTraining(3, 3000, 70)
	held, _ := randomTraining(4, 2000, 70)
	for _, cfg := range []Config{
		{Style: XGB, Rounds: 80, MaxDepth: 5, Seed: 1},
		{Style: LGBM, Rounds: 80, MaxDepth: 5, Seed: 1},
		{Style: Cat, Rounds: 80, MaxDepth: 4, Seed: 1},
	} {
		m := Fit(X, y, cfg)
		b.Run(cfg.Style.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				probaSink = m.PredictProba(held[i%len(held)])
			}
		})
	}
}

// BenchmarkBoostTrain tracks XGB-style training with the parallel split scan.
func BenchmarkBoostTrain(b *testing.B) {
	X, y := randomTraining(29, 400, 70)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(X, y, Config{Style: XGB, Rounds: 20, MaxDepth: 5, Seed: int64(i)})
	}
}

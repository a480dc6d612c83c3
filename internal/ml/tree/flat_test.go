package tree

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
		if X[i][0]+X[i][1]*0.5+0.1*rng.NormFloat64() > 0 {
			y[i] = 1
		}
	}
	return X, y
}

// probes returns X's rows, copies of them with the feature of one split set
// to its threshold, to NaN, ±Inf or −0, and rows that hold one of those
// values in every feature.
func probes(X [][]float64, trees []*Tree) [][]float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	out := slices.Clone(X)
	for k, tr := range trees {
		for i, nd := range tr.Nodes {
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

// pointerWalk is the forest's probability summed tree by tree over the
// pointer trees.
func pointerWalk(f *Forest, x []float64) float64 {
	s := 0.0
	for _, tr := range f.TreeList {
		s += tr.PredictProba(x)
	}
	return s / float64(len(f.TreeList))
}

// TestFlattenedMatchesTreeList pins the packed inference layout to the
// pointer-tree walk under !=: on training rows and on NaN, ±Inf, −0 and
// values equal to a threshold, for forests of 1, 7, 8 and 9 trees (no full
// group of eight, one, and one with a tail) and 25, and with single-leaf
// trees.
func TestFlattenedMatchesTreeList(t *testing.T) {
	X, y := randomTraining(11, 300, 12)
	check := func(name string, f *Forest) {
		t.Helper()
		if f.layout == nil {
			t.Fatalf("%s: no packed layout", name)
		}
		for i, x := range probes(X, f.TreeList) {
			if got, want := f.PredictProba(x), pointerWalk(f, x); got != want {
				t.Fatalf("%s, probe %d: packed proba %v != tree-list proba %v", name, i, got, want)
			}
		}
	}
	for _, n := range []int{1, 7, 8, 9, 25} {
		check(fmt.Sprintf("%d trees", n), FitForest(X, y, ForestConfig{Trees: n, Seed: 3}))
	}

	// One label everywhere: every tree is a single leaf.
	check("single-leaf forest", FitForest(X, make([]int, len(X)), ForestConfig{Trees: 9, Seed: 3}))

	// Single leaves inside a group of eight and in the tail.
	f := FitForest(X, y, ForestConfig{Trees: 10, Seed: 3})
	f.TreeList[2] = &Tree{Nodes: []Node{{Feature: -1, Value: 0.25}}}
	f.TreeList[9] = &Tree{Nodes: []Node{{Feature: -1, Value: 0.75}}}
	var err error
	if f.layout, err = pack(f.TreeList); err != nil {
		t.Fatal(err)
	}
	check("leaves among splits", f)
}

// TestPredictProbaZeroAllocs pins the forest's scoring path at 0 allocs/op.
func TestPredictProbaZeroAllocs(t *testing.T) {
	X, y := randomTraining(13, 200, 10)
	f := FitForest(X, y, ForestConfig{Trees: 20, Seed: 1})
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		f.PredictProba(X[i%len(X)])
		i++
	}); allocs != 0 {
		t.Fatalf("PredictProba: %v allocs/op, want 0", allocs)
	}
}

// TestGobRoundTripRebuildsFlat asserts the wire format is unchanged by the
// packed layout (decode of bytes produced by the pre-packing encoder state)
// and that decoding rebuilds the fast path with identical outputs.
func TestGobRoundTripRebuildsFlat(t *testing.T) {
	X, y := randomTraining(17, 200, 8)
	f := FitForest(X, y, ForestConfig{Trees: 10, Seed: 5})

	// Bytes exactly as an older build wrote them: the exported forestState
	// envelope, no layout anywhere on the wire.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(forestState{Trees: f.TreeList, NFeat: f.nFeat}); err != nil {
		t.Fatal(err)
	}
	var back Forest
	if err := back.GobDecode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if back.layout == nil {
		t.Fatal("GobDecode did not rebuild the packed layout")
	}
	if back.NumFeatures() != f.NumFeatures() {
		t.Fatalf("nFeat %d, want %d", back.NumFeatures(), f.NumFeatures())
	}
	for i, x := range X {
		if got, want := back.PredictProba(x), f.PredictProba(x); got != want {
			t.Fatalf("sample %d: decoded proba %v != original %v", i, got, want)
		}
	}

	// And the symmetric direction: what we encode now must decode on the
	// old state struct (the format really is unchanged).
	enc, err := f.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var s forestState
	if err := gob.NewDecoder(bytes.NewReader(enc)).Decode(&s); err != nil {
		t.Fatalf("new encoding no longer decodes as the legacy state: %v", err)
	}
	if len(s.Trees) != len(f.TreeList) {
		t.Fatalf("legacy decode sees %d trees, want %d", len(s.Trees), len(f.TreeList))
	}
}

// decodeForest gob-encodes trees as a saved forest and decodes them.
func decodeForest(t testing.TB, trees []*Tree, nFeat int) (*Forest, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(forestState{Trees: trees, NFeat: nFeat}); err != nil {
		t.Fatal(err)
	}
	var f Forest
	return &f, f.GobDecode(buf.Bytes())
}

// leaf is a leaf node holding v.
func leaf(v float64) Node { return Node{Feature: -1, Value: v} }

// TestGobDecodeRefusesMalformedForest: a saved forest whose walk from a
// root would leave the tree, loop or share a node, and an empty tree or
// forest, must fail to decode rather than hang or panic at score time.
func TestGobDecodeRefusesMalformedForest(t *testing.T) {
	split := func(f, l, r int) Node { return Node{Feature: f, Threshold: 0.5, Left: l, Right: r} }
	good := &Tree{Nodes: []Node{split(0, 1, 2), leaf(0), leaf(1)}}
	for _, tc := range []struct {
		name  string
		trees []*Tree
	}{
		{"no trees", nil},
		{"tree with no nodes", []*Tree{good, {}}},
		{"split pointing at itself", []*Tree{{Nodes: []Node{split(0, 0, 0)}}}},
		{"child past the tree", []*Tree{{Nodes: []Node{split(0, 9, 9)}}}},
		{"negative child", []*Tree{good, {Nodes: []Node{split(1, -1, 1), leaf(0)}}}},
		{"shared child", []*Tree{{Nodes: []Node{split(0, 1, 1), leaf(0)}}}},
		{"cycle back to the root", []*Tree{{Nodes: []Node{split(0, 1, 2), split(1, 0, 2), leaf(1)}}}},
		{"two splits sharing a leaf", []*Tree{{Nodes: []Node{split(0, 1, 2), split(1, 3, 4), split(1, 4, 3), leaf(0), leaf(1)}}}},
		{"feature past int32", []*Tree{{Nodes: []Node{split(1<<40, 1, 2), leaf(0), leaf(1)}}}},
	} {
		if _, err := decodeForest(t, tc.trees, 2); err == nil {
			t.Errorf("%s: decoded with a nil error", tc.name)
		}
	}
	// Nodes that no walk reaches are not an error.
	f, err := decodeForest(t, []*Tree{{Nodes: []Node{split(1, 2, 3), split(0, 0, 0), leaf(0), leaf(1)}}}, 2)
	if err != nil {
		t.Fatalf("forest with an unreachable node: %v", err)
	}
	if got := f.PredictProba([]float64{0, 1}); got != 1 {
		t.Fatalf("PredictProba = %v, want 1", got)
	}
}

// fuzzValues are the thresholds, leaf values and feature values the fuzzer
// draws.
var fuzzValues = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 0.5, -1, 2}

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// wellFormed reports whether every tree of a non-empty forest walks from
// its root without leaving the tree or reaching a node twice, on features
// that fit in int32: the forests decode must accept.
func wellFormed(trees []*Tree) bool {
	if len(trees) == 0 {
		return false
	}
	for _, tr := range trees {
		seen := make(map[int]bool)
		var walk func(i int) bool
		walk = func(i int) bool {
			if i < 0 || i >= len(tr.Nodes) || seen[i] {
				return false
			}
			seen[i] = true
			nd := tr.Nodes[i]
			if nd.Feature < 0 {
				return true
			}
			return nd.Feature <= math.MaxInt32 && walk(nd.Left) && walk(nd.Right)
		}
		if !walk(0) {
			return false
		}
	}
	return true
}

// FuzzForestLayout decodes a forest of fuzz-built trees, with any feature,
// threshold and child index: decode must refuse exactly the forests that
// are not well formed, and an accepted forest's PredictProba must equal
// the pointer walk bit for bit on a fuzz-chosen x.
func FuzzForestLayout(f *testing.F) {
	// Nine trees of one split and two leaves; then one tree of a split on
	// feature 1 over a split on feature 2.
	stump := []byte{3, 0, 5, 2, 3, 0, 4, 0, 0, 0, 3, 4, 0, 0, 0, 5}
	f.Add(append([]byte{9}, bytes.Repeat(stump, 9)...))
	f.Add([]byte{1, 5, 1, 3, 2, 3, 0, 4, 0, 0, 0, 7, 2, 4, 4, 5, 0, 4, 0, 0, 0, 3, 4, 0, 0, 0, 2, 0, 1, 2})
	f.Add([]byte{2, 1, 0, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		trees := make([]*Tree, in.next()%11)
		for k := range trees {
			n := in.next() % 8
			tr := &Tree{Nodes: make([]Node, n)}
			for i := range tr.Nodes {
				// Features 0-2 split; 3 is past int32; 4-7 are leaves.
				feat := in.next() % 8
				switch {
				case feat == 3:
					feat = 1 << 31
				case feat > 3:
					feat = -1 - feat%2
				}
				tr.Nodes[i] = Node{
					Feature:   feat,
					Threshold: fuzzValues[in.next()%len(fuzzValues)],
					Left:      in.next()%(n+2) - 1,
					Right:     in.next()%(n+2) - 1,
					Value:     fuzzValues[in.next()%len(fuzzValues)],
				}
			}
			trees[k] = tr
		}
		forest, err := decodeForest(t, trees, 3)
		if ok := wellFormed(trees); (err == nil) != ok {
			t.Fatalf("decode error %v for a forest that is well formed: %v", err, ok)
		}
		if err != nil {
			return
		}
		x := make([]float64, forest.Width()+in.next()%2)
		for j := range x {
			x[j] = fuzzValues[in.next()%len(fuzzValues)]
		}
		if got, want := forest.PredictProba(x), pointerWalk(forest, x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("x %v: packed proba %v != tree-list proba %v", x, got, want)
		}
	})
}

// Package tree implements CART decision trees and random forests for binary
// classification — the paper's best-performing model family (HSC + Random
// Forest, Table II) and the substrate for the TreeSHAP analysis (Fig. 9).
package tree

import (
	"fmt"
	"math/rand"
	"slices"
)

// Node is one tree node in the flat node array. Leaves have Feature == -1.
type Node struct {
	// Feature is the split feature index, or -1 for leaves.
	Feature int
	// Threshold splits samples: x[Feature] <= Threshold goes left.
	Threshold float64
	// Left and Right are child indices in the Nodes slice.
	Left, Right int
	// Value is the leaf probability of the positive class (also set on
	// internal nodes: the node-local positive rate, used by TreeSHAP).
	Value float64
	// Cover is the number of training samples that reached the node.
	Cover float64
}

// Tree is a trained CART classifier.
type Tree struct {
	Nodes []Node
}

// Config controls tree induction.
type Config struct {
	// MaxDepth bounds tree depth (<=0 means unbounded).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// MaxFeatures is the number of features examined per split
	// (<=0 means all — plain CART; sqrt(d) is the forest default).
	MaxFeatures int
}

// Fit grows a tree on X (n×d) and binary labels y. rng drives feature
// subsampling; pass nil for deterministic all-features splits.
func Fit(X [][]float64, y []int, cfg Config, rng *rand.Rand) *Tree {
	if len(X) == 0 || len(X) != len(y) {
		panic(fmt.Sprintf("tree: bad training shape n=%d labels=%d", len(X), len(y)))
	}
	b := newBuilder(newRankTables(X, 1), cfg, rng)
	for i := range b.rows {
		b.rows[i] = int32(i)
	}
	return b.fit(y)
}

// rankTables hold, for every feature, its sorted distinct training values
// and each training row's rank among them. A forest builds them once and
// every tree reads them, so split search scans compact int32 columns
// instead of sorting rows through [][]float64 pointers.
type rankTables struct {
	n    int         // training rows
	vals [][]float64 // vals[f]: feature f's distinct values, ascending
	// ranks[f*n+i] is row i's index in vals[f]: feature-major, so one
	// feature's ranks are one contiguous column.
	ranks []int32
	maxD  int // the largest len(vals[f])
}

// newRankTables builds the tables for X, one feature at a time across
// workers goroutines.
func newRankTables(X [][]float64, workers int) *rankTables {
	n, d := len(X), len(X[0])
	t := &rankTables{n: n, vals: make([][]float64, d), ranks: make([]int32, n*d)}
	parallelChunks(d, workers, func(lo, hi int) {
		sorted := make([]float64, n)
		for f := lo; f < hi; f++ {
			for i, x := range X {
				sorted[i] = x[f]
			}
			slices.Sort(sorted)
			// Compact merges values that compare equal (-0 and +0 too),
			// exactly the ties a sorted scan cannot split between.
			vals := slices.Clone(slices.Compact(sorted))
			col := t.column(f)
			for i, x := range X {
				r, _ := slices.BinarySearch(vals, x[f])
				col[i] = int32(r)
			}
			t.vals[f] = vals
		}
	})
	for _, v := range t.vals {
		t.maxD = max(t.maxD, len(v))
	}
	return t
}

// column returns feature f's ranks, indexed by training row.
func (t *rankTables) column(f int) []int32 { return t.ranks[f*t.n : (f+1)*t.n] }

// builder grows one tree over shared rank tables. Its buffers are its own,
// so trees grow in parallel, and a worker reuses one builder across trees.
type builder struct {
	t    *rankTables
	cfg  Config
	rng  *rand.Rand
	tree *Tree
	// rows holds the tree's training rows as indices into the tables, with
	// duplicates for bootstrap repeats. Each node owns a segment of it,
	// positives first, so no loop below looks at a label.
	rows  []int32
	spill []int32 // partition scratch: the rows that go right
	// pos and neg tally positive and negative rows per rank; all zero
	// between uses.
	pos, neg []int32
	// keys (rank<<1 | label, for nodes sorted instead of counted) and runs
	// never outgrow maxD: a node sorts only when it has fewer rows than the
	// feature has values.
	keys  []uint32
	runs  []run // the values present at a node, ascending
	feats []int // candidate features
}

// run is one distinct value present at a node: its rank, how many of the
// node's rows hold it and how many of those are positive.
type run struct{ rank, n, pos int32 }

func newBuilder(t *rankTables, cfg Config, rng *rand.Rand) *builder {
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	b := &builder{
		t: t, cfg: cfg, rng: rng,
		rows:  make([]int32, t.n),
		spill: make([]int32, 0, t.n),
		pos:   make([]int32, t.maxD),
		neg:   make([]int32, t.maxD),
		keys:  make([]uint32, t.maxD),
		runs:  make([]run, 0, t.maxD),
		feats: make([]int, len(t.vals)),
	}
	for i := range b.feats {
		b.feats[i] = i
	}
	return b
}

// fit grows a fresh tree over the builder's rows, after moving the
// positives to the front.
func (b *builder) fit(y []int) *Tree {
	p, q := 0, len(b.rows)
	for p < q {
		if y[b.rows[p]] != 0 {
			p++
		} else {
			q--
			b.rows[p], b.rows[q] = b.rows[q], b.rows[p]
		}
	}
	b.tree = &Tree{}
	b.grow(b.rows, p, 0)
	return b.tree
}

// grow recursively builds the subtree over seg (npos positives first),
// returning its node index.
func (b *builder) grow(seg []int32, npos, depth int) int {
	n := len(seg)
	node := Node{
		Feature: -1,
		Value:   float64(npos) / float64(n),
		Cover:   float64(n),
	}
	self := len(b.tree.Nodes)
	b.tree.Nodes = append(b.tree.Nodes, node)

	if npos == 0 || npos == n || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) || n < 2*b.cfg.MinLeaf {
		return self
	}
	feat, thr, ok := b.bestSplit(seg, npos)
	if !ok {
		return self
	}
	nl, lpos := b.partition(seg, npos, feat, thr)
	if nl < b.cfg.MinLeaf || n-nl < b.cfg.MinLeaf {
		return self
	}
	b.tree.Nodes[self].Feature = feat
	b.tree.Nodes[self].Threshold = thr
	l := b.grow(seg[:nl], lpos, depth+1)
	r := b.grow(seg[nl:], npos-lpos, depth+1)
	b.tree.Nodes[self].Left = l
	b.tree.Nodes[self].Right = r
	return self
}

// bestSplit scans candidate features for the largest Gini impurity
// decrease, evaluating every boundary between values present at the node
// in ascending order. Ties keep the first boundary found.
func (b *builder) bestSplit(seg []int32, npos int) (feature int, threshold float64, ok bool) {
	n := float64(len(seg))
	parentGini := giniImpurity(float64(npos), n)
	bestGain := 1e-12
	for _, f := range b.candidateFeatures() {
		runs := b.presentValues(f, seg, npos)
		leftPos, leftN := 0, 0.0
		for k := 0; k < len(runs)-1; k++ {
			leftPos += int(runs[k].pos)
			leftN += float64(runs[k].n)
			rightN := n - leftN
			gain := parentGini -
				(leftN/n)*giniImpurity(float64(leftPos), leftN) -
				(rightN/n)*giniImpurity(float64(npos-leftPos), rightN)
			if gain > bestGain {
				bestGain = gain
				feature = f
				vals := b.t.vals[f]
				threshold = (vals[runs[k].rank] + vals[runs[k+1].rank]) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

// presentValues lists the values of feature f held by seg's rows, ascending,
// with per-value row and positive counts. Only the number of rows at each
// value matters to a split between values, not their order, so a feature
// with no more distinct values than the node has rows is counted per rank
// in O(rows + values); on smaller nodes the rows' ranks are sorted instead.
func (b *builder) presentValues(f int, seg []int32, npos int) []run {
	col := b.t.column(f)
	runs := b.runs[:0]
	if d := len(b.t.vals[f]); d <= len(seg) {
		pos, neg := b.pos[:d], b.neg[:d]
		for _, i := range seg[:npos] {
			pos[col[i]]++
		}
		for _, i := range seg[npos:] {
			neg[col[i]]++
		}
		for r, p := range pos {
			if c := p + neg[r]; c != 0 {
				runs = append(runs, run{rank: int32(r), n: c, pos: p})
				pos[r], neg[r] = 0, 0
			}
		}
	} else {
		keys := b.keys[:len(seg)]
		for k, i := range seg[:npos] {
			keys[k] = uint32(col[i])<<1 | 1
		}
		for k, i := range seg[npos:] {
			keys[npos+k] = uint32(col[i]) << 1
		}
		slices.Sort(keys)
		for _, key := range keys {
			r := int32(key >> 1)
			if len(runs) == 0 || runs[len(runs)-1].rank != r {
				runs = append(runs, run{rank: r})
			}
			last := &runs[len(runs)-1]
			last.n++
			last.pos += int32(key & 1)
		}
	}
	return runs
}

// partition reorders seg so the rows with x[f] <= thr come first, each side
// keeping its positives first, and returns the left size and its positive
// count. It compares values, not ranks: a midpoint that rounds onto the
// upper value sends that value left, as the threshold says.
func (b *builder) partition(seg []int32, npos, f int, thr float64) (nl, lpos int) {
	col, vals := b.t.column(f), b.t.vals[f]
	spill := b.spill[:0]
	for k, i := range seg {
		if k == npos {
			lpos = nl
		}
		if vals[col[i]] <= thr {
			seg[nl] = i
			nl++
		} else {
			spill = append(spill, i)
		}
	}
	copy(seg[nl:], spill)
	return nl, lpos
}

// candidateFeatures returns the feature subset for this split. Subsampling
// draws rand.Perm(d) into a reused buffer with Perm's exact Intn sequence,
// so the rng stream, and every later split and tree, is unchanged.
func (b *builder) candidateFeatures() []int {
	d, m := len(b.feats), b.cfg.MaxFeatures
	if m <= 0 || m >= d || b.rng == nil {
		return b.feats
	}
	p := b.feats
	for i := 0; i < d; i++ {
		j := b.rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p[:m]
}

// giniImpurity computes 2p(1-p) scaled Gini for a binary node with pos
// positives out of n.
func giniImpurity(pos, n float64) float64 {
	if n == 0 {
		return 0
	}
	p := pos / n
	return 2 * p * (1 - p)
}

// PredictProba returns the tree's positive-class probability for x.
func (t *Tree) PredictProba(x []float64) float64 {
	i := 0
	for {
		nd := &t.Nodes[i]
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

// Depth returns the maximum depth of the tree (root = 0).
func (t *Tree) Depth() int {
	var walk func(i, d int) int
	walk = func(i, d int) int {
		nd := &t.Nodes[i]
		if nd.Feature < 0 {
			return d
		}
		l := walk(nd.Left, d+1)
		r := walk(nd.Right, d+1)
		if l > r {
			return l
		}
		return r
	}
	if len(t.Nodes) == 0 {
		return 0
	}
	return walk(0, 0)
}

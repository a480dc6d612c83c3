// Package ensemble provides the shared inference layout for tree ensembles.
// Both the random forest and the boosted models pack their trees into it
// once after training or deserialization, and score every vector through
// Margin.
//
// Every tree's nodes sit breadth-first in one slice, so a split's right
// child is the node after its left child, and a leaf points at itself.
// Descending one level is then the same arithmetic at a split and at a
// leaf, with no data-dependent branch, and Margin walks eight trees at a
// time in lockstep. What bounds a walk of one tree at a time is the
// dependent, mispredicted branch at every level, not the cache lines.
package ensemble

import (
	"errors"
	"fmt"
	"math"
)

// Node is one tree node as Pack reads it: a split on x[Feature] <=
// Threshold when Feature >= 0, with tree-local child indices, and a leaf
// holding Value otherwise.
type Node struct {
	Feature     int
	Threshold   float64
	Left, Right int
	Value       float64
}

// packed is a node as Margin reads it. A split descends to left when
// x[feature] <= threshold and to left+1 otherwise. A leaf at index i has a
// NaN threshold and left = i-1, so the same step sends it to i-1+1 = i: a
// leaf reads x[0] and stays put.
type packed struct {
	threshold float64
	feature   int32
	left      int32 // absolute index
}

// group is how many trees Margin walks in lockstep.
const group = 8

// Layout is a packed tree ensemble.
type Layout struct {
	nodes  []packed
	values []float64 // leaf values, parallel to nodes
	roots  []int32   // each tree's root, which is its first node
	width  int       // 1 + the largest feature a split reads
}

// Pack lays out an ensemble of len(sizes) trees, tree t having sizes[t]
// nodes, node(t, i) being node i of tree t and node 0 its root. It walks
// every tree from its root and refuses an ensemble with no trees, a tree
// with no nodes, a child index outside its tree, a node reached twice (a
// cycle or a shared child) and a feature or node count past int32. Nodes
// no walk reaches are left out.
func Pack(sizes []int, node func(t, i int) Node) (*Layout, error) {
	if len(sizes) == 0 {
		return nil, errors.New("ensemble: no trees")
	}
	total := 0
	for t, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("ensemble: tree %d has no nodes", t)
		}
		total += n
		if total > math.MaxInt32 {
			return nil, fmt.Errorf("ensemble: more than %d nodes", math.MaxInt32)
		}
	}
	l := &Layout{
		nodes:  make([]packed, 0, total),
		values: make([]float64, 0, total),
		roots:  make([]int32, 0, len(sizes)),
	}
	var order []int // the tree's node indices, breadth-first
	for t, n := range sizes {
		seen := make([]bool, n)
		seen[0] = true
		order = append(order[:0], 0)
		base := int32(len(l.nodes))
		l.roots = append(l.roots, base)
		for k := 0; k < len(order); k++ {
			nd := node(t, order[k])
			self := base + int32(k)
			if nd.Feature < 0 {
				l.nodes = append(l.nodes, packed{threshold: math.NaN(), left: self - 1})
				l.values = append(l.values, nd.Value)
				continue
			}
			if nd.Feature > math.MaxInt32 {
				return nil, fmt.Errorf("ensemble: tree %d node %d splits on feature %d", t, order[k], nd.Feature)
			}
			for _, c := range [2]int{nd.Left, nd.Right} {
				if c < 0 || c >= n {
					return nil, fmt.Errorf("ensemble: tree %d node %d has child %d outside its %d nodes", t, order[k], c, n)
				}
				if seen[c] {
					return nil, fmt.Errorf("ensemble: tree %d reaches node %d twice", t, c)
				}
				seen[c] = true
			}
			l.nodes = append(l.nodes, packed{threshold: nd.Threshold, feature: int32(nd.Feature), left: base + int32(len(order))})
			l.values = append(l.values, nd.Value)
			order = append(order, nd.Left, nd.Right)
			l.width = max(l.width, nd.Feature+1)
		}
	}
	return l, nil
}

// Width returns 1 + the largest feature index a split reads: Margin reads
// x[0] and no further than x[Width()-1].
func (l *Layout) Width() int { return l.width }

// standIn is read by leaves in place of an empty x.
var standIn = []float64{0}

// Margin walks every tree for x and returns base + scale·leaf summed in
// tree order, the order a loop over the trees one by one adds them, so the
// result is that loop's bit for bit (scale 1 adds the leaves themselves).
//
// Trees go in groups of eight. A group steps all eight trees one level at a
// time until no index moves, then adds its leaves; the trees after the last
// full group walk one at a time.
func (l *Layout) Margin(x []float64, base, scale float64) float64 {
	if len(x) == 0 && l.width == 0 {
		x = standIn // only leaves, which read x[0] and ignore it
	}
	nodes, values, roots := l.nodes, l.values, l.roots
	s := base
	for ; len(roots) >= group; roots = roots[group:] {
		i0, i1, i2, i3 := roots[0], roots[1], roots[2], roots[3]
		i4, i5, i6, i7 := roots[4], roots[5], roots[6], roots[7]
		for {
			j0, j1, j2, j3 := step(nodes, x, i0), step(nodes, x, i1), step(nodes, x, i2), step(nodes, x, i3)
			j4, j5, j6, j7 := step(nodes, x, i4), step(nodes, x, i5), step(nodes, x, i6), step(nodes, x, i7)
			moved := (j0 ^ i0) | (j1 ^ i1) | (j2 ^ i2) | (j3 ^ i3) | (j4 ^ i4) | (j5 ^ i5) | (j6 ^ i6) | (j7 ^ i7)
			i0, i1, i2, i3, i4, i5, i6, i7 = j0, j1, j2, j3, j4, j5, j6, j7
			if moved == 0 {
				break
			}
		}
		s += scale * values[i0]
		s += scale * values[i1]
		s += scale * values[i2]
		s += scale * values[i3]
		s += scale * values[i4]
		s += scale * values[i5]
		s += scale * values[i6]
		s += scale * values[i7]
	}
	for _, i := range roots {
		for j := step(nodes, x, i); j != i; j = step(nodes, x, i) {
			i = j
		}
		s += scale * values[i]
	}
	return s
}

// step descends node i one level for x.
func step(nodes []packed, x []float64, i int32) int32 {
	nd := &nodes[i]
	return nd.left + right(x[nd.feature], nd.threshold)
}

// right is 0 when v <= t and 1 otherwise, which the compiler turns into a
// flag read, not a branch. It tests !(v <= t), not v > t: a NaN feature, or
// a leaf's NaN threshold, goes right, as a pointer walk sends it.
func right(v, t float64) int32 {
	if v <= t {
		return 0
	}
	return 1
}

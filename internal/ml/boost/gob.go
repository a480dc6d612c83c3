package boost

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// nodeState mirrors the unexported regression-tree node for gob.
type nodeState struct {
	Feature     int
	Threshold   float64
	Left, Right int
	Value       float64
}

// modelState mirrors Model for gob. Config is kept because prediction
// scales every tree by the learning rate.
type modelState struct {
	Cfg   Config
	Base  float64
	Trees [][]nodeState
}

// GobEncode implements gob.GobEncoder so fitted ensembles persist through
// Detector.Save.
func (m *Model) GobEncode() ([]byte, error) {
	s := modelState{Cfg: m.cfg, Base: m.base, Trees: make([][]nodeState, len(m.trees))}
	for i, t := range m.trees {
		ns := make([]nodeState, len(t.nodes))
		for j, nd := range t.nodes {
			ns[j] = nodeState(nd)
		}
		s.Trees[i] = ns
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(s)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (m *Model) GobDecode(data []byte) error {
	var s modelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return err
	}
	trees := make([]regTree, len(s.Trees))
	for i, ns := range s.Trees {
		nodes := make([]node, len(ns))
		for j, nd := range ns {
			nodes[j] = node(nd)
		}
		trees[i] = regTree{nodes: nodes}
	}
	// The wire format predates the packed inference layout; it is rebuilt
	// here, so older saved detectors score identically, and trees it cannot
	// pack are refused.
	layout, err := pack(trees)
	if err != nil {
		return fmt.Errorf("boost: decode model: %w", err)
	}
	m.cfg, m.base, m.trees, m.layout = s.Cfg, s.Base, trees, layout
	return nil
}

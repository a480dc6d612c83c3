package models

import (
	"fmt"
	"sync/atomic"

	"github.com/phishinghook/phishinghook/internal/nn/flat"
)

// flatServing is embedded by every deep model: the compiled inference
// program ScoreFeatures executes instead of the closure forward. The
// pointer is atomic so a program can be installed while the model serves
// concurrent traffic. It is deliberately outside the models' gob state —
// programs are recompiled from the restored weights after UnmarshalBinary,
// exactly like ensemble.Layout.
type flatServing struct {
	flatProg atomic.Pointer[flat.Program]
}

func (f *flatServing) program() *flat.Program     { return f.flatProg.Load() }
func (f *flatServing) setProgram(p *flat.Program) { f.flatProg.Store(p) }

// flatModel is the contract a deep model fulfils to serve through a
// compiled program: it records its architecture into a Builder and keeps
// the closure forward as the reference.
type flatModel interface {
	Scorer
	// flatBuilder records the fitted architecture as a flat program.
	flatBuilder() *flat.Builder
	// scoreRef is the closure-forward reference path.
	scoreRef(x []float64) (float64, error)
	setProgram(p *flat.Program)
}

// compileFlat compiles and installs the serving program — called at the
// end of Fit and UnmarshalBinary. A compile failure is a real wiring bug
// (shape drift between training and serving), so it propagates.
func compileFlat(m flatModel) error {
	prog, err := m.flatBuilder().Compile()
	if err != nil {
		return fmt.Errorf("models: %s: compile flat program: %w", m.Name(), err)
	}
	m.setProgram(prog)
	return nil
}

// ReferenceScoreFeatures scores through the training-time closure forward,
// bypassing the compiled program — the parity baseline for the flat path.
// Models without a flat path score normally.
func ReferenceScoreFeatures(s Scorer, x []float64) (float64, error) {
	if fm, ok := s.(flatModel); ok {
		return fm.scoreRef(x)
	}
	return s.ScoreFeatures(x)
}

// ScoreRun scores a run of feature vectors, writing out[i] =
// s.ScoreFeatures(xs[i]) bit for bit. A model whose feature vector is one
// window of its compiled program (GPT-2α, T5α) scores the run through
// flat.Program.ForwardRun, so a prefix-safe program computes each window
// only from the first token where it differs from the one before; sorting
// the run lexicographically shares the most. Every other model scores the
// vectors one at a time.
func ScoreRun(s Scorer, xs [][]float64, out []float64) error {
	if lm, ok := s.(*transformerLM); ok {
		if p := lm.runProgram(xs); p != nil {
			return p.ForwardRun(xs, out)
		}
	}
	for i, x := range xs {
		p, err := s.ScoreFeatures(x)
		if err != nil {
			return err
		}
		out[i] = p
	}
	return nil
}

// Compile-time checks: every deep model serves through a flat program.
var (
	_ flatModel = (*escort)(nil)
	_ flatModel = (*scsGuard)(nil)
	_ flatModel = (*transformerLM)(nil)
	_ flatModel = (*ecaEffNet)(nil)
	_ flatModel = (*vit)(nil)
)

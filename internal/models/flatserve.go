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
// exactly like ensemble.Flat.
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

// Compile-time checks: every deep model serves through a flat program.
var (
	_ flatModel = (*escort)(nil)
	_ flatModel = (*scsGuard)(nil)
	_ flatModel = (*transformerLM)(nil)
	_ flatModel = (*ecaEffNet)(nil)
	_ flatModel = (*vit)(nil)
)

package models

import (
	"fmt"
	"math/rand"

	"github.com/phishinghook/phishinghook/internal/dataset"
	"github.com/phishinghook/phishinghook/internal/evm"
	"github.com/phishinghook/phishinghook/internal/features"
	"github.com/phishinghook/phishinghook/internal/nn"
	"github.com/phishinghook/phishinghook/internal/nn/flat"
)

// escort reproduces ESCORT's two-phase design (Sendner et al., NDSS'23):
// a shared DNN feature extractor over embedded bytecode, pre-trained to
// classify *code vulnerability* categories, then frozen while a fresh
// branch head is transfer-learned on the new task — here phishing, where
// the paper finds the approach near chance level because phishing is a
// social-engineering construct, not a code-structure defect.
type escort struct {
	cfg NeuralConfig
	flatServing

	fz         *features.OpcodeSeqFeaturizer
	emb        *nn.Embedding
	enc1, enc2 *nn.Dense
	branch     *nn.Dense // phishing head (trained in phase 2)
	extractor  []*nn.Param
	fitted     bool
}

// NewESCORT builds the ESCORT vulnerability-detection model.
func NewESCORT(cfg NeuralConfig) Classifier {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &escort{cfg: cfg}
	fz, err := newFeaturizer(features.KindOpcodeSeq, alphaSeqFeatConfig(cfg))
	if err != nil {
		panic(fmt.Sprintf("models: ESCORT featurizer: %v", err))
	}
	m.fz = fz.(*features.OpcodeSeqFeaturizer)
	embDim := 8
	m.emb = nn.NewEmbedding("escort.emb", m.fz.VocabSize(), embDim, rng)
	m.enc1 = nn.NewDense("escort.enc1", embDim, 16, rng)
	m.enc2 = nn.NewDense("escort.enc2", 16, 4, rng)
	m.extractor = append(m.extractor, m.emb.Params()...)
	m.extractor = append(m.extractor, m.enc1.Params()...)
	m.extractor = append(m.extractor, m.enc2.Params()...)
	return m
}

// Name implements Classifier.
func (m *escort) Name() string { return "ESCORT" }

// Family implements Classifier.
func (m *escort) Family() Family { return VDM }

// numVulnClasses is the phase-1 multi-class label space.
const numVulnClasses = 4

// vulnClass derives a structural vulnerability category from bytecode —
// the kind of label ESCORT is designed for (reentrancy-style unchecked
// calls, selfdestruct reachability, delegatecall proxies, arithmetic).
// These depend on *code structure*, deliberately not on the phishing label.
func vulnClass(code []byte) int {
	var hasSelfDestruct, hasDelegate bool
	calls, arith := 0, 0
	evm.WalkOps(code, func(op evm.Opcode) {
		switch {
		case op == evm.SELFDESTRUCT:
			hasSelfDestruct = true
		case op == evm.DELEGATECALL:
			hasDelegate = true
		case op == evm.CALL || op == evm.STATICCALL || op == evm.CALLCODE:
			calls++
		case op >= evm.ADD && op <= evm.SIGNEXTEND:
			arith++
		}
	})
	switch {
	case hasSelfDestruct:
		return 0
	case hasDelegate:
		return 1
	case calls > arith:
		return 2
	default:
		return 3
	}
}

// encode produces the truncated opcode ID sequence (the featurizer's α
// window).
func (m *escort) encode(code []byte) ([]int, bool) {
	return m.fz.Windows(code)[0], true
}

// forwardExtractor produces the frozen-phase feature vector.
func (m *escort) forwardExtractor(ids []int) ([]float64, func(d []float64)) {
	E, backE := m.emb.Forward(ids)
	pooled, backP := nn.MeanPool(E)
	h1, b1 := m.enc1.Forward(pooled)
	a1, ba1 := nn.ReLU(h1)
	h2, b2 := m.enc2.Forward(a1)
	feat, ba2 := nn.ReLU(h2)
	back := func(d []float64) {
		backE(backP(b1(ba1(b2(ba2(d))))))
	}
	return feat, back
}

// Fit implements Classifier: phase 1 pre-trains the extractor on synthetic
// vulnerability classes; phase 2 freezes it and trains only the new
// phishing branch head.
func (m *escort) Fit(train *dataset.Dataset) error {
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	seqs := make([][]int, train.Len())
	vulnLabels := make([]int, train.Len())
	for i, s := range train.Samples {
		seqs[i], _ = m.encode(s.Bytecode)
		vulnLabels[i] = vulnClass(s.Bytecode)
	}

	// Phase 1: multi-class vulnerability pre-training.
	vulnHead := nn.NewDense("escort.vuln", 4, numVulnClasses, rng)
	phase1 := append(append([]*nn.Param{}, m.extractor...), vulnHead.Params()...)
	trainSamples(train.Len(), vulnLabels, phase1, func(i int) ([]float64, func([]float64)) {
		feat, backF := m.forwardExtractor(seqs[i])
		logits, backH := vulnHead.Forward(feat)
		return logits, func(dl []float64) { backF(backH(dl)) }
	}, m.cfg)

	// Phase 2: transfer learning — extractor frozen, new binary branch.
	m.branch = nn.NewDense("escort.branch", 4, 2, rng)
	trainSamples(train.Len(), train.Labels(), m.branch.Params(), func(i int) ([]float64, func([]float64)) {
		feat, _ := m.forwardExtractor(seqs[i]) // no gradient into the extractor
		logits, backH := m.branch.Forward(feat)
		return logits, func(dl []float64) { backH(dl) }
	}, m.cfg)
	m.fitted = true
	return compileFlat(m)
}

// Predict implements Classifier.
func (m *escort) Predict(test *dataset.Dataset) ([]int, error) {
	if !m.fitted {
		return nil, errNotFitted(m.Name())
	}
	out := make([]int, test.Len())
	for i, s := range test.Samples {
		ids, _ := m.encode(s.Bytecode)
		feat, _ := m.forwardExtractor(ids)
		logits, _ := m.branch.Forward(feat)
		out[i] = argmax2(logits)
	}
	return out, nil
}

// Featurizer implements Scorer.
func (m *escort) Featurizer() features.Featurizer { return m.fz }

// ScoreFeatures implements Scorer: the compiled flat program when one is
// installed, the closure forward otherwise.
func (m *escort) ScoreFeatures(x []float64) (float64, error) {
	if !m.fitted {
		return 0, errNotFitted(m.Name())
	}
	if p := m.program(); p != nil {
		return m.scoreWith(p, x)
	}
	return m.scoreRef(x)
}

// scoreRef implements flatModel: the closure-forward reference.
func (m *escort) scoreRef(x []float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmptyInput
	}
	feat, _ := m.forwardExtractor(features.IDs(x))
	logits, _ := m.branch.Forward(feat)
	return nn.Softmax(logits)[1], nil
}

// scoreWith scores x through the compiled program p.
func (m *escort) scoreWith(p *flat.Program, x []float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmptyInput
	}
	return p.Forward(x)
}

// flatBuilder implements flatModel: fused embed+meanpool, two fused
// Dense+ReLU stages, branch head.
func (m *escort) flatBuilder() *flat.Builder {
	b := flat.NewBuilder(m.fz.Dim())
	h := b.EmbedMean(m.emb, m.fz.SeqLen)
	h = b.Dense(m.enc1, h, flat.ReLU)
	h = b.Dense(m.enc2, h, flat.ReLU)
	b.Logits(m.branch, h)
	return b
}

// escortState is the serialized fitted model: extractor and branch-head
// snapshots are kept separate because the branch only exists after Fit.
type escortState struct {
	Feat      []byte
	Extractor [][]float64
	Branch    [][]float64
}

// MarshalBinary implements Persistable.
func (m *escort) MarshalBinary() ([]byte, error) {
	if !m.fitted {
		return nil, errNotFitted(m.Name())
	}
	feat, err := features.MarshalFeaturizer(m.fz)
	if err != nil {
		return nil, err
	}
	return encodeState(escortState{
		Feat:      feat,
		Extractor: saveParams(m.extractor),
		Branch:    saveParams(m.branch.Params()),
	})
}

// UnmarshalBinary implements Persistable.
func (m *escort) UnmarshalBinary(data []byte) error {
	var s escortState
	if err := decodeState(data, &s); err != nil {
		return err
	}
	fz, err := features.LoadFeaturizer(s.Feat)
	if err != nil {
		return err
	}
	osf, ok := fz.(*features.OpcodeSeqFeaturizer)
	if !ok {
		return fmt.Errorf("models: ESCORT: saved featurizer kind %v, want %v", fz.Kind(), features.KindOpcodeSeq)
	}
	if err := loadParams(m.extractor, s.Extractor); err != nil {
		return err
	}
	m.branch = nn.NewDense("escort.branch", 4, 2, rand.New(rand.NewSource(m.cfg.Seed)))
	if err := loadParams(m.branch.Params(), s.Branch); err != nil {
		return err
	}
	m.fz = osf
	m.fitted = true
	return compileFlat(m)
}

package models

import (
	"fmt"
	"math/rand"

	"github.com/phishinghook/phishinghook/internal/dataset"
	"github.com/phishinghook/phishinghook/internal/features"
	"github.com/phishinghook/phishinghook/internal/nn"
	"github.com/phishinghook/phishinghook/internal/nn/flat"
)

// scsGuard is the SCSGuard language model: hex-bigram embedding, multi-head
// attention, a GRU sequence summarizer and a linear head (Hu et al.,
// INFOCOM'22 Workshops).
type scsGuard struct {
	cfg NeuralConfig
	flatServing

	fz     *features.BigramSeqFeaturizer
	emb    *nn.Embedding
	attn   *nn.MultiHeadAttention
	gru    *nn.GRU
	head   *nn.Dense
	params []*nn.Param
	fitted bool
}

// NewSCSGuard builds the SCSGuard model.
func NewSCSGuard(cfg NeuralConfig) Classifier { return &scsGuard{cfg: cfg} }

// Name implements Classifier.
func (m *scsGuard) Name() string { return "SCSGuard" }

// Family implements Classifier.
func (m *scsGuard) Family() Family { return LM }

func (m *scsGuard) build(vocabSize int) {
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	m.emb = nn.NewEmbedding("scs.emb", vocabSize, m.cfg.Dim, rng)
	m.attn = nn.NewMultiHeadAttention("scs.attn", m.cfg.Dim, m.cfg.Heads, rng)
	m.gru = nn.NewGRU("scs.gru", m.cfg.Dim, m.cfg.Hidden, rng)
	m.head = nn.NewDense("scs.head", m.cfg.Hidden, 2, rng)
	m.params = nil
	m.params = append(m.params, m.emb.Params()...)
	m.params = append(m.params, m.attn.Params()...)
	m.params = append(m.params, m.gru.Params()...)
	m.params = append(m.params, m.head.Params()...)
}

func (m *scsGuard) forward(ids []int) ([]float64, func(dl []float64)) {
	E, backE := m.emb.Forward(ids)
	A, backA := m.attn.ForwardSelf(E, false)
	h, backG := m.gru.Forward(A)
	logits, backH := m.head.Forward(h)
	back := func(dl []float64) {
		backE(backA(backG(backH(dl))))
	}
	return logits, back
}

// Fit implements Classifier.
func (m *scsGuard) Fit(train *dataset.Dataset) error {
	fz, err := newFeaturizer(features.KindBigramSeq, bigramFeatConfig(m.cfg))
	if err != nil {
		return err
	}
	corpus := codes(train)
	if err := fz.Fit(corpus); err != nil {
		return err
	}
	m.fz = fz.(*features.BigramSeqFeaturizer)
	m.build(m.fz.VocabSize())
	seqs := make([][]int, train.Len())
	for i, s := range train.Samples {
		seqs[i] = m.fz.Encode(s.Bytecode)
	}
	trainSamples(train.Len(), train.Labels(), m.params, func(i int) ([]float64, func([]float64)) {
		return m.forward(seqs[i])
	}, m.cfg)
	m.fitted = true
	return compileFlat(m)
}

// Predict implements Classifier.
func (m *scsGuard) Predict(test *dataset.Dataset) ([]int, error) {
	if !m.fitted {
		return nil, errNotFitted(m.Name())
	}
	out := make([]int, test.Len())
	for i, s := range test.Samples {
		logits, _ := m.forward(m.fz.Encode(s.Bytecode))
		out[i] = argmax2(logits)
	}
	return out, nil
}

// Featurizer implements Scorer.
func (m *scsGuard) Featurizer() features.Featurizer {
	if m.fz == nil {
		return nil
	}
	return m.fz
}

// ScoreFeatures implements Scorer: the compiled flat program when one is
// installed, the closure forward otherwise.
func (m *scsGuard) ScoreFeatures(x []float64) (float64, error) {
	if !m.fitted {
		return 0, errNotFitted(m.Name())
	}
	if p := m.program(); p != nil {
		return m.scoreWith(p, x)
	}
	return m.scoreRef(x)
}

// scoreRef implements flatModel: the closure-forward reference.
func (m *scsGuard) scoreRef(x []float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmptyInput
	}
	logits, _ := m.forward(features.IDs(x))
	return nn.Softmax(logits)[1], nil
}

// scoreWith scores x through the compiled program p.
func (m *scsGuard) scoreWith(p *flat.Program, x []float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmptyInput
	}
	return p.Forward(x)
}

// flatBuilder implements flatModel: embed, bidirectional self-attention,
// GRU summarizer, head.
func (m *scsGuard) flatBuilder() *flat.Builder {
	b := flat.NewBuilder(m.fz.Dim())
	e := b.EmbedSeq(m.emb, m.fz.SeqLen, nil)
	att := b.SelfAttn(m.attn, e, false)
	h := b.GRU(m.gru, att)
	b.Logits(m.head, h)
	return b
}

// MarshalBinary implements Persistable.
func (m *scsGuard) MarshalBinary() ([]byte, error) {
	if !m.fitted {
		return nil, errNotFitted(m.Name())
	}
	feat, err := features.MarshalFeaturizer(m.fz)
	if err != nil {
		return nil, err
	}
	return encodeState(neuralState{Feat: feat, Params: saveParams(m.params)})
}

// UnmarshalBinary implements Persistable. The network is rebuilt from the
// restored vocabulary size before the parameter snapshot is loaded.
func (m *scsGuard) UnmarshalBinary(data []byte) error {
	var s neuralState
	if err := decodeState(data, &s); err != nil {
		return err
	}
	fz, err := features.LoadFeaturizer(s.Feat)
	if err != nil {
		return err
	}
	bz, ok := fz.(*features.BigramSeqFeaturizer)
	if !ok {
		return fmt.Errorf("models: SCSGuard: saved featurizer kind %v, want %v", fz.Kind(), features.KindBigramSeq)
	}
	m.fz = bz
	m.build(bz.VocabSize())
	if err := loadParams(m.params, s.Params); err != nil {
		return err
	}
	m.fitted = true
	return compileFlat(m)
}

// Variant selects the paper's sequence-handling mode for GPT-2 and T5.
type Variant int

// Sequence-handling variants.
const (
	// Alpha truncates opcode sequences to the model's token limit
	// (the paper's RTX-4090 runs).
	Alpha Variant = iota + 1
	// Beta processes full bytecodes in sliding-window chunks
	// (the paper's H100 runs).
	Beta
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == Beta {
		return "β"
	}
	return "α"
}

// transformerLM is the shared GPT-2-like / T5-like classifier. kind
// distinguishes the decoder-only causal architecture (GPT-2) from the
// encoder(+cross-attention pooling) architecture (T5).
type transformerLM struct {
	name    string
	kind    string // "gpt2" | "t5"
	variant Variant
	cfg     NeuralConfig
	flatServing

	fz     *features.OpcodeSeqFeaturizer
	emb    *nn.Embedding
	pos    *nn.Param
	blocks []*nn.TransformerBlock
	// T5 decoder: a learned query cross-attending over encoder states.
	decQuery *nn.Param
	decAttn  *nn.MultiHeadAttention
	norm     *nn.LayerNorm
	head     *nn.Dense
	params   []*nn.Param
	fitted   bool
}

// NewGPT2 builds the GPT-2-like causal transformer classifier.
func NewGPT2(variant Variant, cfg NeuralConfig) Classifier {
	return newTransformerLM("GPT-2"+variant.String(), "gpt2", variant, cfg)
}

// NewT5 builds the T5-like encoder-decoder classifier.
func NewT5(variant Variant, cfg NeuralConfig) Classifier {
	return newTransformerLM("T5"+variant.String(), "t5", variant, cfg)
}

func newTransformerLM(name, kind string, variant Variant, cfg NeuralConfig) *transformerLM {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &transformerLM{name: name, kind: kind, variant: variant, cfg: cfg}
	featCfg := alphaSeqFeatConfig(cfg)
	if variant == Beta {
		featCfg = betaSeqFeatConfig(cfg)
	}
	fz, err := newFeaturizer(features.KindOpcodeSeq, featCfg)
	if err != nil {
		panic(fmt.Sprintf("models: %s featurizer: %v", name, err))
	}
	m.fz = fz.(*features.OpcodeSeqFeaturizer)
	m.emb = nn.NewEmbedding(name+".emb", m.fz.VocabSize(), cfg.Dim, rng)
	m.pos = nn.NewParam(name+".pos", cfg.SeqLen*cfg.Dim, nn.NormalInit(rng, 0.02))
	for b := 0; b < cfg.Blocks; b++ {
		m.blocks = append(m.blocks, nn.NewTransformerBlock(name+".blk", cfg.Dim, cfg.Heads, 2*cfg.Dim, rng))
	}
	if kind == "t5" {
		m.decQuery = nn.NewParam(name+".query", cfg.Dim, nn.NormalInit(rng, 0.02))
		m.decAttn = nn.NewMultiHeadAttention(name+".xattn", cfg.Dim, cfg.Heads, rng)
	}
	m.norm = nn.NewLayerNorm(name+".ln", cfg.Dim)
	m.head = nn.NewDense(name+".head", cfg.Dim, 2, rng)

	m.params = append(m.params, m.emb.Params()...)
	m.params = append(m.params, m.pos)
	for _, b := range m.blocks {
		m.params = append(m.params, b.Params()...)
	}
	if kind == "t5" {
		m.params = append(m.params, m.decQuery)
		m.params = append(m.params, m.decAttn.Params()...)
	}
	m.params = append(m.params, m.norm.Params()...)
	m.params = append(m.params, m.head.Params()...)
	return m
}

// Name implements Classifier.
func (m *transformerLM) Name() string { return m.name }

// Family implements Classifier.
func (m *transformerLM) Family() Family { return LM }

// forward runs one fixed-length window.
func (m *transformerLM) forward(ids []int) ([]float64, func(dl []float64)) {
	dim := m.cfg.Dim
	E, backE := m.emb.Forward(ids)
	x := make([][]float64, len(E))
	for t := range E {
		v := make([]float64, dim)
		off := t * dim
		for i := 0; i < dim; i++ {
			v[i] = E[t][i] + m.pos.W[off+i]
		}
		x[t] = v
	}
	causal := m.kind == "gpt2"
	backs := make([]nn.SeqBackward, len(m.blocks))
	for bi, blk := range m.blocks {
		x, backs[bi] = blk.Forward(x, causal)
	}

	if m.kind == "gpt2" {
		// Mean-pool the decoder states, norm, classify.
		pooled, backPool := nn.MeanPool(x)
		normed, backN := m.norm.Forward(pooled)
		logits, backH := m.head.Forward(normed)
		back := func(dl []float64) {
			dx := backPool(backN(backH(dl)))
			for bi := len(m.blocks) - 1; bi >= 0; bi-- {
				dx = backs[bi](dx)
			}
			for t := range dx {
				off := t * dim
				for i := 0; i < dim; i++ {
					m.pos.G[off+i] += dx[t][i]
				}
			}
			backE(dx)
		}
		return logits, back
	}

	// T5: a single learned decoder query cross-attends over encoder states.
	q := [][]float64{append([]float64(nil), m.decQuery.W...)}
	ctx, backX := m.decAttn.ForwardCross(q, x)
	normed, backN := m.norm.Forward(ctx[0])
	logits, backH := m.head.Forward(normed)
	back := func(dl []float64) {
		dctx := [][]float64{backN(backH(dl))}
		dq, dx := backX(dctx)
		for i := range dq[0] {
			m.decQuery.G[i] += dq[0][i]
		}
		for bi := len(m.blocks) - 1; bi >= 0; bi-- {
			dx = backs[bi](dx)
		}
		for t := range dx {
			off := t * dim
			for i := 0; i < dim; i++ {
				m.pos.G[off+i] += dx[t][i]
			}
		}
		backE(dx)
	}
	return logits, back
}

// windows produces the training/inference windows for a bytecode under the
// model's variant (the featurizer owns truncation vs sliding windows).
func (m *transformerLM) windows(code []byte) [][]int {
	return m.fz.Windows(code)
}

// Fit implements Classifier. β variants train on every window with the
// contract's label.
func (m *transformerLM) Fit(train *dataset.Dataset) error {
	var seqs [][]int
	var labels []int
	for i, s := range train.Samples {
		for _, w := range m.windows(s.Bytecode) {
			seqs = append(seqs, w)
			labels = append(labels, int(train.Samples[i].Label))
		}
	}
	trainSamples(len(seqs), labels, m.params, func(i int) ([]float64, func([]float64)) {
		return m.forward(seqs[i])
	}, m.cfg)
	m.fitted = true
	return compileFlat(m)
}

// Predict implements Classifier. β variants average window probabilities.
func (m *transformerLM) Predict(test *dataset.Dataset) ([]int, error) {
	if !m.fitted {
		return nil, errNotFitted(m.name)
	}
	out := make([]int, test.Len())
	for i, s := range test.Samples {
		var pPhish float64
		wins := m.windows(s.Bytecode)
		for _, w := range wins {
			logits, _ := m.forward(w)
			pPhish += nn.Softmax(logits)[1]
		}
		if pPhish/float64(len(wins)) >= 0.5 {
			out[i] = 1
		}
	}
	return out, nil
}

// Featurizer implements Scorer.
func (m *transformerLM) Featurizer() features.Featurizer { return m.fz }

// ScoreFeatures implements Scorer. β variants average window probabilities
// over the windows present in the flat layout, mirroring Predict. Serving
// goes through the compiled per-window flat program when one is installed.
func (m *transformerLM) ScoreFeatures(x []float64) (float64, error) {
	if !m.fitted {
		return 0, errNotFitted(m.name)
	}
	if p := m.program(); p != nil {
		return m.scoreWith(p, x)
	}
	return m.scoreRef(x)
}

// scoreRef implements flatModel: the closure-forward reference.
func (m *transformerLM) scoreRef(x []float64) (float64, error) {
	wins := m.fz.SplitWindows(x)
	if len(wins) == 0 {
		return 0, ErrEmptyInput
	}
	var pPhish float64
	for _, w := range wins {
		logits, _ := m.forward(w)
		pPhish += nn.Softmax(logits)[1]
	}
	return pPhish / float64(len(wins)), nil
}

// scoreWith scores x through p. The program scores one SeqLen window, so
// the β layout is walked in place with SplitWindows' exact semantics
// (trailing all-PAD windows absent, first window always present) without
// materializing window copies.
func (m *transformerLM) scoreWith(p *flat.Program, x []float64) (float64, error) {
	seqLen := m.fz.SeqLen
	var pPhish float64
	n := 0
	for base := 0; base+seqLen <= len(x); base += seqLen {
		win := x[base : base+seqLen]
		if base > 0 {
			allPad := true
			for _, v := range win {
				if int(v) != features.PadID {
					allPad = false
					break
				}
			}
			if allPad {
				break
			}
		}
		p1, err := p.Forward(win)
		if err != nil {
			return 0, err
		}
		pPhish += p1
		n++
	}
	if n == 0 {
		return 0, ErrEmptyInput
	}
	return pPhish / float64(n), nil
}

// runProgram returns the serving program when every vector in xs is
// exactly one SeqLen window (α), which scoreWith scores with a single
// Forward, and nil otherwise: β vectors hold several windows and score one
// at a time.
func (m *transformerLM) runProgram(xs [][]float64) *flat.Program {
	p := m.program()
	if !m.fitted || p == nil {
		return nil
	}
	for _, x := range xs {
		if len(x) != m.fz.SeqLen {
			return nil
		}
	}
	return p
}

// flatBuilder implements flatModel: one SeqLen window through fused
// embed+positional, the block stack, then the kind-specific read-out.
func (m *transformerLM) flatBuilder() *flat.Builder {
	b := flat.NewBuilder(m.fz.SeqLen)
	x := b.EmbedSeq(m.emb, m.fz.SeqLen, m.pos)
	causal := m.kind == "gpt2"
	for _, blk := range m.blocks {
		b.Block(blk, x, causal)
	}
	var h flat.Buf
	if m.kind == "gpt2" {
		h = b.MeanPool(x)
	} else {
		h = b.CrossQuery(m.decAttn, m.decQuery, x)
	}
	h = b.LayerNorm(m.norm, h)
	b.Logits(m.head, h)
	return b
}

// MarshalBinary implements Persistable.
func (m *transformerLM) MarshalBinary() ([]byte, error) {
	if !m.fitted {
		return nil, errNotFitted(m.name)
	}
	feat, err := features.MarshalFeaturizer(m.fz)
	if err != nil {
		return nil, err
	}
	return encodeState(neuralState{Feat: feat, Params: saveParams(m.params)})
}

// UnmarshalBinary implements Persistable.
func (m *transformerLM) UnmarshalBinary(data []byte) error {
	var s neuralState
	if err := decodeState(data, &s); err != nil {
		return err
	}
	fz, err := features.LoadFeaturizer(s.Feat)
	if err != nil {
		return err
	}
	osf, ok := fz.(*features.OpcodeSeqFeaturizer)
	if !ok {
		return fmt.Errorf("models: %s: saved featurizer kind %v, want %v", m.name, fz.Kind(), features.KindOpcodeSeq)
	}
	if err := loadParams(m.params, s.Params); err != nil {
		return err
	}
	m.fz = osf
	m.fitted = true
	return compileFlat(m)
}

package models

import (
	"fmt"
	"math/rand"

	"github.com/phishinghook/phishinghook/internal/dataset"
	"github.com/phishinghook/phishinghook/internal/features"
	"github.com/phishinghook/phishinghook/internal/nn"
	"github.com/phishinghook/phishinghook/internal/nn/flat"
)

// ecaEffNet is the ECA+EfficientNet vision model: bytecode rendered as an
// RGB image (R2D2 encoding), two strided conv stages each followed by
// Efficient Channel Attention, global average pooling and a linear head —
// the EfficientNet-B0 + ECA design of Zhou et al. scaled to CPU width.
type ecaEffNet struct {
	cfg NeuralConfig
	flatServing

	fz           features.Featurizer
	conv1, conv2 *nn.Conv2D
	eca1, eca2   *nn.ECA
	head         *nn.Dense
	params       []*nn.Param
	fitted       bool
}

// NewECAEfficientNet builds the ECA+EfficientNet vision model.
func NewECAEfficientNet(cfg NeuralConfig) Classifier {
	// The CNN is by far the cheapest neural model; the grid search favours
	// a longer schedule for it.
	cfg.Epochs *= 8
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := cfg.Hidden / 4
	if c < 4 {
		c = 4
	}
	m := &ecaEffNet{cfg: cfg}
	m.conv1 = nn.NewConv2D("eca.conv1", 3, c, 3, 2, 1, rng)
	m.eca1 = nn.NewECA("eca.att1", 3, rng)
	m.conv2 = nn.NewConv2D("eca.conv2", c, 2*c, 3, 2, 1, rng)
	m.eca2 = nn.NewECA("eca.att2", 3, rng)
	m.head = nn.NewDense("eca.head", 2*c, 2, rng)
	m.params = append(m.params, m.conv1.Params()...)
	m.params = append(m.params, m.eca1.Params()...)
	m.params = append(m.params, m.conv2.Params()...)
	m.params = append(m.params, m.eca2.Params()...)
	m.params = append(m.params, m.head.Params()...)
	return m
}

// Name implements Classifier.
func (m *ecaEffNet) Name() string { return "ECA+EfficientNet" }

// Family implements Classifier.
func (m *ecaEffNet) Family() Family { return VM }

// forward runs one image through the network.
func (m *ecaEffNet) forward(img nn.Image) ([]float64, func(dl []float64)) {
	c1, bc1 := m.conv1.Forward(img)
	r1, br1 := nn.ReLUImage(c1)
	e1, be1 := m.eca1.Forward(r1)
	c2, bc2 := m.conv2.Forward(e1)
	r2, br2 := nn.ReLUImage(c2)
	e2, be2 := m.eca2.Forward(r2)
	pooled, bp := nn.GlobalAvgPool(e2)
	logits, bh := m.head.Forward(pooled)
	back := func(dl []float64) {
		d := bp(bh(dl))
		d = be2(d)
		d = br2(d)
		d = bc2(d)
		d = be1(d)
		d = br1(d)
		bc1(d)
	}
	return logits, back
}

// Fit implements Classifier.
func (m *ecaEffNet) Fit(train *dataset.Dataset) error {
	fz, err := newFeaturizer(features.KindByteImage, imageFeatConfig(m.cfg))
	if err != nil {
		return err
	}
	if err := fz.Fit(codes(train)); err != nil {
		return err
	}
	m.fz = fz
	imgs := make([]nn.Image, train.Len())
	for i, s := range train.Samples {
		imgs[i] = nn.FromFlatRGB(m.fz.Transform(s.Bytecode), m.cfg.ImageSide)
	}
	trainSamples(train.Len(), train.Labels(), m.params, func(i int) ([]float64, func([]float64)) {
		return m.forward(imgs[i])
	}, m.cfg)
	m.fitted = true
	return compileFlat(m)
}

// Predict implements Classifier.
func (m *ecaEffNet) Predict(test *dataset.Dataset) ([]int, error) {
	if !m.fitted {
		return nil, errNotFitted(m.Name())
	}
	out := make([]int, test.Len())
	for i, s := range test.Samples {
		img := nn.FromFlatRGB(m.fz.Transform(s.Bytecode), m.cfg.ImageSide)
		logits, _ := m.forward(img)
		out[i] = argmax2(logits)
	}
	return out, nil
}

// Featurizer implements Scorer.
func (m *ecaEffNet) Featurizer() features.Featurizer { return m.fz }

// ScoreFeatures implements Scorer: the compiled flat program when one is
// installed, the closure forward otherwise.
func (m *ecaEffNet) ScoreFeatures(x []float64) (float64, error) {
	if !m.fitted {
		return 0, errNotFitted(m.Name())
	}
	if p := m.program(); p != nil {
		return m.scoreWith(p, x)
	}
	return m.scoreRef(x)
}

// scoreRef implements flatModel: the closure-forward reference.
func (m *ecaEffNet) scoreRef(x []float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmptyInput
	}
	logits, _ := m.forward(nn.FromFlatRGB(x, m.cfg.ImageSide))
	return nn.Softmax(logits)[1], nil
}

// scoreWith scores x through the compiled program p.
func (m *ecaEffNet) scoreWith(p *flat.Program, x []float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmptyInput
	}
	return p.Forward(x)
}

// flatBuilder implements flatModel: channels-first input, two fused
// conv+ReLU stages each gated in place by ECA, global pool, head.
func (m *ecaEffNet) flatBuilder() *flat.Builder {
	b := flat.NewBuilder(m.cfg.ImageSide * m.cfg.ImageSide * 3)
	img := b.ImageInput(m.cfg.ImageSide)
	c1 := b.Conv(m.conv1, img, true)
	b.ECA(m.eca1, c1)
	c2 := b.Conv(m.conv2, c1, true)
	b.ECA(m.eca2, c2)
	pooled := b.GAP(c2)
	b.Logits(m.head, pooled)
	return b
}

// neuralState is the shared serialized form of the fixed-architecture
// neural models: featurizer state + positional parameter snapshot.
type neuralState struct {
	Feat   []byte
	Params [][]float64
}

// MarshalBinary implements Persistable.
func (m *ecaEffNet) MarshalBinary() ([]byte, error) {
	if !m.fitted {
		return nil, errNotFitted(m.Name())
	}
	feat, err := features.MarshalFeaturizer(m.fz)
	if err != nil {
		return nil, err
	}
	return encodeState(neuralState{Feat: feat, Params: saveParams(m.params)})
}

// UnmarshalBinary implements Persistable.
func (m *ecaEffNet) UnmarshalBinary(data []byte) error {
	var s neuralState
	if err := decodeState(data, &s); err != nil {
		return err
	}
	fz, err := features.LoadFeaturizer(s.Feat)
	if err != nil {
		return err
	}
	if fz.Kind() != features.KindByteImage {
		return fmt.Errorf("models: %s: saved featurizer kind %v, want %v", m.Name(), fz.Kind(), features.KindByteImage)
	}
	if err := loadParams(m.params, s.Params); err != nil {
		return err
	}
	m.fz = fz
	m.fitted = true
	return compileFlat(m)
}

// vit is a Vision Transformer: patch embedding, CLS token, learned
// positional embeddings, pre-norm transformer blocks and a CLS head —
// ViT-B/16 scaled down (the paper fine-tunes the HuggingFace checkpoint).
// The two variants differ only in their featurizer kind (R2D2 byte colours
// vs frequency encoding).
type vit struct {
	name     string
	cfg      NeuralConfig
	featKind features.Kind
	fz       features.Featurizer
	flatServing

	patchProj *nn.Dense
	cls, pos  *nn.Param
	blocks    []*nn.TransformerBlock
	finalNorm *nn.LayerNorm
	head      *nn.Dense
	params    []*nn.Param
	fitted    bool
}

// NewViTR2D2 builds the ViT over R2D2 byte-colour images.
func NewViTR2D2(cfg NeuralConfig) Classifier {
	return newViT("ViT+R2D2", cfg, features.KindByteImage)
}

// NewViTFreq builds the ViT over frequency-encoded opcode images.
func NewViTFreq(cfg NeuralConfig) Classifier {
	return newViT("ViT+Freq", cfg, features.KindFreqImage)
}

func newViT(name string, cfg NeuralConfig, featKind features.Kind) *vit {
	cfg.Epochs *= 2 // grid-search schedule for the patch transformer
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &vit{name: name, cfg: cfg, featKind: featKind}
	patchDim := cfg.Patch * cfg.Patch * 3
	nPatches := (cfg.ImageSide / cfg.Patch) * (cfg.ImageSide / cfg.Patch)
	m.patchProj = nn.NewDense(name+".patch", patchDim, cfg.Dim, rng)
	m.cls = nn.NewParam(name+".cls", cfg.Dim, nn.NormalInit(rng, 0.02))
	m.pos = nn.NewParam(name+".pos", (nPatches+1)*cfg.Dim, nn.NormalInit(rng, 0.02))
	for b := 0; b < cfg.Blocks; b++ {
		m.blocks = append(m.blocks, nn.NewTransformerBlock(name+".blk", cfg.Dim, cfg.Heads, 2*cfg.Dim, rng))
	}
	m.finalNorm = nn.NewLayerNorm(name+".ln", cfg.Dim)
	m.head = nn.NewDense(name+".head", cfg.Dim, 2, rng)

	m.params = append(m.params, m.patchProj.Params()...)
	m.params = append(m.params, m.cls, m.pos)
	for _, b := range m.blocks {
		m.params = append(m.params, b.Params()...)
	}
	m.params = append(m.params, m.finalNorm.Params()...)
	m.params = append(m.params, m.head.Params()...)
	return m
}

// Name implements Classifier.
func (m *vit) Name() string { return m.name }

// Family implements Classifier.
func (m *vit) Family() Family { return VM }

// patches splits a flat side×side×3 image into flattened patch vectors.
func (m *vit) patches(flat []float64) [][]float64 {
	side, p := m.cfg.ImageSide, m.cfg.Patch
	per := side / p
	out := make([][]float64, 0, per*per)
	for py := 0; py < per; py++ {
		for px := 0; px < per; px++ {
			patch := make([]float64, 0, p*p*3)
			for y := py * p; y < (py+1)*p; y++ {
				for x := px * p; x < (px+1)*p; x++ {
					base := (y*side + x) * 3
					patch = append(patch, flat[base], flat[base+1], flat[base+2])
				}
			}
			out = append(out, patch)
		}
	}
	return out
}

// forward runs one image through the transformer.
func (m *vit) forward(flat []float64) ([]float64, func(dl []float64)) {
	patchVecs := m.patches(flat)
	tokens, backProj := m.patchProj.ForwardSeq(patchVecs)

	dim := m.cfg.Dim
	seq := make([][]float64, len(tokens)+1)
	clsTok := make([]float64, dim)
	copy(clsTok, m.cls.W)
	for i := 0; i < dim; i++ {
		clsTok[i] += m.pos.W[i]
	}
	seq[0] = clsTok
	for t, tok := range tokens {
		v := make([]float64, dim)
		off := (t + 1) * dim
		for i := 0; i < dim; i++ {
			v[i] = tok[i] + m.pos.W[off+i]
		}
		seq[t+1] = v
	}

	backs := make([]nn.SeqBackward, len(m.blocks))
	x := seq
	for bi, blk := range m.blocks {
		x, backs[bi] = blk.Forward(x, false)
	}
	// Mean-pool token states for the classification head. ViT-B/16 uses the
	// CLS state, but with a from-scratch scaled-down model mean pooling
	// trains markedly better; the CLS token is kept for architectural
	// faithfulness and participates in the pool.
	pooled, backPool := nn.MeanPool(x)
	clsOut, backLN := m.finalNorm.Forward(pooled)
	logits, backHead := m.head.Forward(clsOut)

	back := func(dl []float64) {
		dx := backPool(backLN(backHead(dl)))
		for bi := len(m.blocks) - 1; bi >= 0; bi-- {
			dx = backs[bi](dx)
		}
		// Positional and CLS parameters.
		for i := 0; i < dim; i++ {
			m.cls.G[i] += dx[0][i]
			m.pos.G[i] += dx[0][i]
		}
		dTokens := make([][]float64, len(tokens))
		for t := range tokens {
			off := (t + 1) * dim
			for i := 0; i < dim; i++ {
				m.pos.G[off+i] += dx[t+1][i]
			}
			dTokens[t] = dx[t+1]
		}
		backProj(dTokens)
	}
	return logits, back
}

// Fit implements Classifier.
func (m *vit) Fit(train *dataset.Dataset) error {
	fz, err := newFeaturizer(m.featKind, imageFeatConfig(m.cfg))
	if err != nil {
		return err
	}
	if err := fz.Fit(codes(train)); err != nil {
		return err
	}
	m.fz = fz
	imgs := make([][]float64, train.Len())
	for i, s := range train.Samples {
		imgs[i] = m.fz.Transform(s.Bytecode)
	}
	trainSamples(train.Len(), train.Labels(), m.params, func(i int) ([]float64, func([]float64)) {
		return m.forward(imgs[i])
	}, m.cfg)
	m.fitted = true
	return compileFlat(m)
}

// Predict implements Classifier.
func (m *vit) Predict(test *dataset.Dataset) ([]int, error) {
	if !m.fitted {
		return nil, errNotFitted(m.name)
	}
	out := make([]int, test.Len())
	for i, s := range test.Samples {
		logits, _ := m.forward(m.fz.Transform(s.Bytecode))
		out[i] = argmax2(logits)
	}
	return out, nil
}

// Featurizer implements Scorer.
func (m *vit) Featurizer() features.Featurizer { return m.fz }

// ScoreFeatures implements Scorer: the compiled flat program when one is
// installed, the closure forward otherwise.
func (m *vit) ScoreFeatures(x []float64) (float64, error) {
	if !m.fitted {
		return 0, errNotFitted(m.name)
	}
	if p := m.program(); p != nil {
		return m.scoreWith(p, x)
	}
	return m.scoreRef(x)
}

// scoreRef implements flatModel: the closure-forward reference.
func (m *vit) scoreRef(x []float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmptyInput
	}
	logits, _ := m.forward(x)
	return nn.Softmax(logits)[1], nil
}

// scoreWith scores x through the compiled program p.
func (m *vit) scoreWith(p *flat.Program, x []float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmptyInput
	}
	return p.Forward(x)
}

// flatBuilder implements flatModel: fused patch gather+projection+CLS+pos,
// the block stack, mean pool, final norm, head.
func (m *vit) flatBuilder() *flat.Builder {
	b := flat.NewBuilder(m.cfg.ImageSide * m.cfg.ImageSide * 3)
	seq := b.PatchViT(m.patchProj, m.cls, m.pos, m.cfg.ImageSide, m.cfg.Patch)
	for _, blk := range m.blocks {
		b.Block(blk, seq, false)
	}
	pooled := b.MeanPool(seq)
	normed := b.LayerNorm(m.finalNorm, pooled)
	b.Logits(m.head, normed)
	return b
}

// MarshalBinary implements Persistable.
func (m *vit) MarshalBinary() ([]byte, error) {
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
func (m *vit) UnmarshalBinary(data []byte) error {
	var s neuralState
	if err := decodeState(data, &s); err != nil {
		return err
	}
	fz, err := features.LoadFeaturizer(s.Feat)
	if err != nil {
		return err
	}
	if fz.Kind() != m.featKind {
		return fmt.Errorf("models: %s: saved featurizer kind %v, want %v", m.name, fz.Kind(), m.featKind)
	}
	if err := loadParams(m.params, s.Params); err != nil {
		return err
	}
	m.fz = fz
	m.fitted = true
	return compileFlat(m)
}

// Package flat compiles trained internal/nn models into forward-only
// inference programs — the deep-model counterpart of ensemble.Layout.
//
// The tape-style nn layers are built for training: every Forward allocates
// its outputs plus a backward closure. Serving needs none of that. A
// Builder walks a fitted model's layers and records a fused op sequence
// (Dense+activation, LayerNorm, GRU steps over preallocated gate buffers,
// direct-loop convolution, attention over flat QKV projections) with every
// scratch buffer planned at compile time. Compile copies the trained
// float64 weights into struct-of-arrays slices; Forward then executes into
// a pooled per-worker scratch arena, so steady-state scoring is 0 allocs/op
// and safe for concurrent use. Programs track the closure forward well
// inside the 1e-6 parity budget (ops.go and fastmath.go document the
// deliberate deviations).
package flat

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/phishinghook/phishinghook/internal/nn"
)

// Act selects the activation fused into a Dense op.
type Act int

// Fused activations.
const (
	// None applies no activation.
	None Act = iota
	// ReLU fuses max(0, y).
	ReLU
)

// Buf is a handle to one planned scratch buffer.
type Buf int

// shape describes a planned buffer: a flat vector, a seq×dim sequence, or a
// channels-first image.
type shape struct {
	n             int // total floats
	rows, cols    int // sequence geometry (rows = positions)
	imC, imH, imW int // image geometry
}

func vecShape(n int) shape          { return shape{n: n} }
func seqShape(rows, cols int) shape { return shape{n: rows * cols, rows: rows, cols: cols} }
func imgShape(c, h, w int) shape    { return shape{n: c * h * w, imC: c, imH: h, imW: w} }

// opKind discriminates the recorded op specs.
type opKind int

const (
	kInput opKind = iota
	kEmbedSeq
	kEmbedMean
	kDense
	kLayerNorm
	kGRU
	kSelfAttn
	kBlock
	kCrossQuery
	kMeanPool
	kImageInput
	kConv
	kECA
	kGAP
	kPatchViT
)

// opSpec is one recorded op: layer references plus resolved buffer
// handles. Compile converts it to an executable op.
type opSpec struct {
	kind    opKind
	in, out Buf
	scratch []Buf

	dense *nn.Dense
	emb   *nn.Embedding
	ln    *nn.LayerNorm
	gru   *nn.GRU
	mha   *nn.MultiHeadAttention
	blk   *nn.TransformerBlock
	conv  *nn.Conv2D
	eca   *nn.ECA
	pos   *nn.Param
	cls   *nn.Param // also the learned cross-attention query

	act         Act
	causal      bool
	relu        bool
	seqLen      int
	side, patch int
}

// Builder records a forward program over a fitted model's layers. All
// methods validate shapes eagerly; the first error sticks and is returned
// by Compile, so model code can chain calls without per-step checks.
type Builder struct {
	inDim     int
	shapes    []shape
	specs     []opSpec
	logits    Buf
	hasLogits bool
	err       error
}

// NewBuilder starts a program whose input is a feature vector of inDim
// float64s (the model featurizer's Transform output, or one window of it).
func NewBuilder(inDim int) *Builder {
	return &Builder{inDim: inDim}
}

// fail records the first builder error.
func (b *Builder) fail(format string, args ...any) Buf {
	if b.err == nil {
		b.err = fmt.Errorf("flat: "+format, args...)
	}
	return 0
}

// alloc plans one scratch buffer.
func (b *Builder) alloc(sh shape) Buf {
	b.shapes = append(b.shapes, sh)
	return Buf(len(b.shapes) - 1)
}

// shapeOf returns the shape of a planned buffer.
func (b *Builder) shapeOf(buf Buf) shape {
	if int(buf) < 0 || int(buf) >= len(b.shapes) {
		return shape{}
	}
	return b.shapes[buf]
}

// Input copies the raw program input into a vector buffer — the entry
// point for models that consume the feature vector directly.
func (b *Builder) Input() Buf {
	if b.err != nil {
		return 0
	}
	out := b.alloc(vecShape(b.inDim))
	b.specs = append(b.specs, opSpec{kind: kInput, out: out})
	return out
}

// EmbedSeq embeds the program input's token IDs (floats, as emitted by the
// sequence featurizers) into a seqLen×dim sequence, optionally fusing a
// learned positional table (pos may be nil; otherwise it must hold at least
// seqLen×dim values).
func (b *Builder) EmbedSeq(e *nn.Embedding, seqLen int, pos *nn.Param) Buf {
	if b.err != nil {
		return 0
	}
	if seqLen != b.inDim {
		return b.fail("EmbedSeq over %d tokens, program input is %d", seqLen, b.inDim)
	}
	if pos != nil && len(pos.W) < seqLen*e.Dim {
		return b.fail("positional table %d < %d×%d", len(pos.W), seqLen, e.Dim)
	}
	out := b.alloc(seqShape(seqLen, e.Dim))
	b.specs = append(b.specs, opSpec{kind: kEmbedSeq, emb: e, pos: pos, seqLen: seqLen, out: out})
	return out
}

// EmbedMean embeds the input tokens and mean-pools them into one dim
// vector — the fused form of Embedding.Forward + MeanPool.
func (b *Builder) EmbedMean(e *nn.Embedding, seqLen int) Buf {
	if b.err != nil {
		return 0
	}
	if seqLen != b.inDim {
		return b.fail("EmbedMean over %d tokens, program input is %d", seqLen, b.inDim)
	}
	out := b.alloc(vecShape(e.Dim))
	b.specs = append(b.specs, opSpec{kind: kEmbedMean, emb: e, seqLen: seqLen, out: out})
	return out
}

// Dense applies y = act(Wx + b) to a vector buffer.
func (b *Builder) Dense(d *nn.Dense, in Buf, act Act) Buf {
	if b.err != nil {
		return 0
	}
	if sh := b.shapeOf(in); sh.n != d.In || sh.rows != 0 || sh.imC != 0 {
		return b.fail("Dense %d→%d over buffer of %d floats", d.In, d.Out, sh.n)
	}
	out := b.alloc(vecShape(d.Out))
	b.specs = append(b.specs, opSpec{kind: kDense, dense: d, act: act, in: in, out: out})
	return out
}

// LayerNorm normalizes a vector buffer.
func (b *Builder) LayerNorm(l *nn.LayerNorm, in Buf) Buf {
	if b.err != nil {
		return 0
	}
	if sh := b.shapeOf(in); sh.n != l.Dim || sh.rows != 0 {
		return b.fail("LayerNorm dim %d over buffer of %d floats", l.Dim, sh.n)
	}
	out := b.alloc(vecShape(l.Dim))
	b.specs = append(b.specs, opSpec{kind: kLayerNorm, ln: l, in: in, out: out})
	return out
}

// GRU consumes a sequence buffer and returns the final hidden state. The
// four gate buffers are planned here, sized at compile time.
func (b *Builder) GRU(g *nn.GRU, seq Buf) Buf {
	if b.err != nil {
		return 0
	}
	sh := b.shapeOf(seq)
	if sh.rows == 0 || sh.cols != g.In {
		return b.fail("GRU input %d over sequence %d×%d", g.In, sh.rows, sh.cols)
	}
	scratch := []Buf{
		b.alloc(vecShape(g.Hidden)), // z
		b.alloc(vecShape(g.Hidden)), // r
		b.alloc(vecShape(g.Hidden)), // r∘h
		b.alloc(vecShape(g.Hidden)), // h̃
	}
	out := b.alloc(vecShape(g.Hidden))
	b.specs = append(b.specs, opSpec{kind: kGRU, gru: g, in: seq, out: out, scratch: scratch, seqLen: sh.rows})
	return out
}

// attnScratch plans the shared attention scratch: Q, K, V, a score row and
// a context row.
func (b *Builder) attnScratch(rows, dim int) []Buf {
	return []Buf{
		b.alloc(seqShape(rows, dim)), // Q
		b.alloc(seqShape(rows, dim)), // K
		b.alloc(seqShape(rows, dim)), // V
		b.alloc(vecShape(rows)),      // scores
		b.alloc(vecShape(dim)),       // ctx
	}
}

// SelfAttn applies bare multi-head self-attention (projections + softmax +
// output projection, no residual or norm) over a sequence buffer.
func (b *Builder) SelfAttn(m *nn.MultiHeadAttention, seq Buf, causal bool) Buf {
	if b.err != nil {
		return 0
	}
	sh := b.shapeOf(seq)
	if sh.rows == 0 || sh.cols != m.Dim {
		return b.fail("SelfAttn dim %d over sequence %d×%d", m.Dim, sh.rows, sh.cols)
	}
	scratch := b.attnScratch(sh.rows, m.Dim)
	out := b.alloc(seqShape(sh.rows, sh.cols))
	b.specs = append(b.specs, opSpec{kind: kSelfAttn, mha: m, in: seq, out: out, scratch: scratch, causal: causal, seqLen: sh.rows})
	return out
}

// Block applies one pre-norm transformer block in place on a sequence
// buffer: x += MHA(LN1(x)); x += FFN(LN2(x)).
func (b *Builder) Block(blk *nn.TransformerBlock, seq Buf, causal bool) {
	if b.err != nil {
		return
	}
	sh := b.shapeOf(seq)
	if sh.rows == 0 || sh.cols != blk.Dim {
		b.fail("Block dim %d over sequence %d×%d", blk.Dim, sh.rows, sh.cols)
		return
	}
	scratch := []Buf{b.alloc(seqShape(sh.rows, blk.Dim))} // LN1 output
	scratch = append(scratch, b.attnScratch(sh.rows, blk.Dim)...)
	scratch = append(scratch,
		b.alloc(vecShape(blk.Dim)),   // LN2 row
		b.alloc(vecShape(blk.FFDim)), // FFN mid row
	)
	b.specs = append(b.specs, opSpec{kind: kBlock, blk: blk, in: seq, out: seq, scratch: scratch, causal: causal, seqLen: sh.rows})
}

// CrossQuery attends one learned query over a sequence buffer and returns
// the projected context vector (the T5-style decoder read). The query's Wq
// projection is a constant, so it is folded at compile time.
func (b *Builder) CrossQuery(m *nn.MultiHeadAttention, query *nn.Param, seq Buf) Buf {
	if b.err != nil {
		return 0
	}
	sh := b.shapeOf(seq)
	if sh.rows == 0 || sh.cols != m.Dim {
		return b.fail("CrossQuery dim %d over sequence %d×%d", m.Dim, sh.rows, sh.cols)
	}
	if len(query.W) != m.Dim {
		return b.fail("CrossQuery query len %d, want %d", len(query.W), m.Dim)
	}
	scratch := []Buf{
		b.alloc(seqShape(sh.rows, m.Dim)), // K
		b.alloc(seqShape(sh.rows, m.Dim)), // V
		b.alloc(vecShape(sh.rows)),        // scores
		b.alloc(vecShape(m.Dim)),          // ctx
	}
	out := b.alloc(vecShape(m.Dim))
	b.specs = append(b.specs, opSpec{kind: kCrossQuery, mha: m, cls: query, in: seq, out: out, scratch: scratch, seqLen: sh.rows})
	return out
}

// MeanPool averages a sequence buffer into one vector.
func (b *Builder) MeanPool(seq Buf) Buf {
	if b.err != nil {
		return 0
	}
	sh := b.shapeOf(seq)
	if sh.rows == 0 {
		return b.fail("MeanPool over non-sequence buffer")
	}
	out := b.alloc(vecShape(sh.cols))
	b.specs = append(b.specs, opSpec{kind: kMeanPool, in: seq, out: out, seqLen: sh.rows})
	return out
}

// ImageInput converts the program input (a side×side×3 pixel-major vector,
// the image featurizers' layout) into a channels-first image buffer.
func (b *Builder) ImageInput(side int) Buf {
	if b.err != nil {
		return 0
	}
	if side*side*3 != b.inDim {
		return b.fail("ImageInput side %d needs %d floats, program input is %d", side, side*side*3, b.inDim)
	}
	out := b.alloc(imgShape(3, side, side))
	b.specs = append(b.specs, opSpec{kind: kImageInput, side: side, out: out})
	return out
}

// Conv applies a convolution (direct loops, bias fused, optional fused
// ReLU) to an image buffer.
func (b *Builder) Conv(c *nn.Conv2D, in Buf, relu bool) Buf {
	if b.err != nil {
		return 0
	}
	sh := b.shapeOf(in)
	if sh.imC != c.InC {
		return b.fail("Conv expects %d channels, buffer has %d", c.InC, sh.imC)
	}
	oh, ow := c.OutShape(sh.imH, sh.imW)
	out := b.alloc(imgShape(c.OutC, oh, ow))
	b.specs = append(b.specs, opSpec{kind: kConv, conv: c, in: in, out: out, relu: relu})
	return out
}

// ECA applies Efficient Channel Attention in place on an image buffer.
func (b *Builder) ECA(e *nn.ECA, img Buf) {
	if b.err != nil {
		return
	}
	sh := b.shapeOf(img)
	if sh.imC == 0 {
		b.fail("ECA over non-image buffer")
		return
	}
	scratch := []Buf{b.alloc(vecShape(sh.imC)), b.alloc(vecShape(sh.imC))} // gap, att
	b.specs = append(b.specs, opSpec{kind: kECA, eca: e, in: img, out: img, scratch: scratch})
}

// GAP reduces an image buffer to its per-channel means.
func (b *Builder) GAP(img Buf) Buf {
	if b.err != nil {
		return 0
	}
	sh := b.shapeOf(img)
	if sh.imC == 0 {
		return b.fail("GAP over non-image buffer")
	}
	out := b.alloc(vecShape(sh.imC))
	b.specs = append(b.specs, opSpec{kind: kGAP, in: img, out: out})
	return out
}

// PatchViT fuses ViT input assembly: patch extraction straight from the
// pixel-major program input, patch projection, the CLS token and the
// learned positional table, producing a (patches+1)×dim sequence buffer.
func (b *Builder) PatchViT(proj *nn.Dense, cls, pos *nn.Param, side, patch int) Buf {
	if b.err != nil {
		return 0
	}
	if side*side*3 != b.inDim {
		return b.fail("PatchViT side %d needs %d floats, program input is %d", side, side*side*3, b.inDim)
	}
	if patch <= 0 || side%patch != 0 {
		return b.fail("PatchViT patch %d does not tile side %d", patch, side)
	}
	if proj.In != patch*patch*3 {
		return b.fail("PatchViT projection input %d, want %d", proj.In, patch*patch*3)
	}
	per := side / patch
	n := per * per
	if len(cls.W) != proj.Out || len(pos.W) != (n+1)*proj.Out {
		return b.fail("PatchViT cls/pos sizes %d/%d, want %d/%d", len(cls.W), len(pos.W), proj.Out, (n+1)*proj.Out)
	}
	out := b.alloc(seqShape(n+1, proj.Out))
	b.specs = append(b.specs, opSpec{kind: kPatchViT, dense: proj, cls: cls, pos: pos, side: side, patch: patch, out: out})
	return out
}

// Logits terminates the program with the 2-class head; Forward returns
// softmax(logits)[1].
func (b *Builder) Logits(d *nn.Dense, in Buf) {
	if b.err != nil {
		return
	}
	if d.Out != 2 {
		b.fail("Logits head emits %d classes, want 2", d.Out)
		return
	}
	b.logits = b.Dense(d, in, None)
	b.hasLogits = b.err == nil
}

// Program is a compiled forward-only inference program. Forward and
// ForwardRun are safe for concurrent use and allocate nothing in steady
// state.
type Program struct {
	inDim  int
	ops    []op
	logits int
	pool   sync.Pool // *arena
	// prefixSafe: every sequence row depends only on the tokens at or
	// before it (see Compile), so a window may start where it first
	// differs from the window before it.
	prefixSafe bool
}

// InputSizeError reports a Forward input that does not match the compiled
// input width.
type InputSizeError struct {
	Got, Want int
}

// Error implements error.
func (e *InputSizeError) Error() string {
	return fmt.Sprintf("flat: input has %d floats, program compiled for %d", e.Got, e.Want)
}

// Forward executes the program over one feature vector into a pooled arena
// and returns P(class 1) read off the logits buffer.
func (p *Program) Forward(x []float64) (float64, error) {
	if len(x) != p.inDim {
		return 0, &InputSizeError{Got: len(x), Want: p.inDim}
	}
	a := p.pool.Get().(*arena)
	pr := p.exec(a, x, 0)
	p.pool.Put(a)
	return pr, nil
}

// ForwardRun scores a run of feature vectors through one arena, writing
// out[i] = Forward(xs[i]) bit for bit. On a prefix-safe program each
// window starts at the first token where it differs from the window before
// it: below that row the arena's residual rows and every block's K/V rows
// already hold this window's values, computed by the same arithmetic. A
// caller that sorts its windows lexicographically shares the most rows.
// Other programs run every window from row 0.
func (p *Program) ForwardRun(xs [][]float64, out []float64) error {
	if len(out) < len(xs) {
		return fmt.Errorf("flat: ForwardRun of %d windows into %d outputs", len(xs), len(out))
	}
	for _, x := range xs {
		if len(x) != p.inDim {
			return &InputSizeError{Got: len(x), Want: p.inDim}
		}
	}
	a := p.pool.Get().(*arena)
	var prev []float64
	for i, x := range xs {
		from := 0
		if p.prefixSafe && prev != nil {
			for from < len(x) && x[from] == prev[from] {
				from++
			}
		}
		out[i] = p.exec(a, x, from)
		prev = x
	}
	p.pool.Put(a)
	return nil
}

// PrefixSafe reports whether ForwardRun reuses shared leading rows.
func (p *Program) PrefixSafe() bool { return p.prefixSafe }

// InDim returns the width of the feature vector (window) the program scores.
func (p *Program) InDim() int { return p.inDim }

// exec runs every op over x, sequence ops from row from, and returns
// P(class 1) read off the logits buffer.
func (p *Program) exec(a *arena, x []float64, from int) float64 {
	for _, o := range p.ops {
		o.run(a, x, from)
	}
	lb := a.bufs[p.logits]
	return 1 / (1 + math.Exp(lb[0]-lb[1]))
}

// Compile instantiates the recorded program.
func (b *Builder) Compile() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if !b.hasLogits {
		return nil, errors.New("flat: program has no logits head")
	}
	sizes := make([]int, len(b.shapes))
	for i, sh := range b.shapes {
		sizes[i] = sh.n
	}
	p := &Program{inDim: b.inDim, logits: int(b.logits), prefixSafe: prefixSafe(b.specs)}
	for _, spec := range b.specs {
		o, err := instantiate(b, spec)
		if err != nil {
			return nil, err
		}
		p.ops = append(p.ops, o)
	}
	p.pool.New = func() any { return newArena(sizes) }
	return p, nil
}

// prefixSafe reports whether a program computes sequence row t from input
// tokens 0..t alone: its only sequence ops are the token embedding and
// causal blocks, and every other op is a vector op or the mean pool that
// reads the finished sequence. GPT-2 programs qualify; recurrence, bare or
// cross attention, non-causal blocks and image ops do not.
func prefixSafe(specs []opSpec) bool {
	for _, s := range specs {
		switch {
		case s.kind == kEmbedSeq, s.kind == kMeanPool, s.kind == kDense, s.kind == kLayerNorm:
		case s.kind == kBlock && s.causal:
		default:
			return false
		}
	}
	return true
}

// arena is one worker's scratch: every planned buffer sliced out of a
// single backing array.
type arena struct {
	bufs [][]float64
}

func newArena(sizes []int) *arena {
	total := 0
	for _, s := range sizes {
		total += s
	}
	back := make([]float64, total)
	bufs := make([][]float64, len(sizes))
	off := 0
	for i, s := range sizes {
		bufs[i] = back[off : off+s : off+s]
		off += s
	}
	return &arena{bufs: bufs}
}

// op is one executable step. Sequence ops that honour a prefix-safe run
// (EmbedSeq, Block) compute rows from..seqLen only; every other op runs in
// full and ignores from, which is 0 outside a prefix-safe run.
type op interface {
	run(a *arena, x []float64, from int)
}

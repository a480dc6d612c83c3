package flat

import (
	"fmt"
	"math"
	"slices"

	"github.com/phishinghook/phishinghook/internal/nn"
)

// The ops mirror the closure layers' float64 arithmetic — same grouping and
// special forms (division-not-multiplication pooling, the branch-stable
// sigmoid, per-head max-shifted softmax) — with one deliberate deviation:
// dot products accumulate over independent lanes (see mat) and the softmax
// normalizes by a single reciprocal, so programs track the training forward
// to ~1e-15 instead of bit-exactly. Both reassociations are noise against
// the 1e-6 parity budget and buy the pipelined inner loops the whole
// package exists for.

// sigmoid mirrors mat.Sigmoid's overflow-stable branches.
func sigmoid(v float64) float64 {
	if v >= 0 {
		z := math.Exp(-v)
		return 1 / (1 + z)
	}
	z := math.Exp(v)
	return z / (1 + z)
}

// gelu mirrors nn.GELU's tanh approximation.
func gelu(v float64) float64 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	return 0.5 * v * (1 + math.Tanh(c*(v+0.044715*v*v*v)))
}

// layerNormRow normalizes one row with nn.LayerNorm's arithmetic
// (population statistics, lnEps = 1e-5).
func layerNormRow(x, y, gain, bias []float64) {
	const lnEps = 1e-5
	n := float64(len(x))
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= n
	va := 0.0
	for _, v := range x {
		d := v - mean
		va += d * d
	}
	va /= n
	inv := 1 / math.Sqrt(va+lnEps)
	for i, v := range x {
		xhat := (v - mean) * inv
		y[i] = xhat*gain[i] + bias[i]
	}
}

// tokenID converts one input float to a clamped embedding row index
// (featurizers emit in-vocabulary IDs; clamping makes hostile inputs safe
// where the closure path would index out of range).
func tokenID(v float64, vocab int) int {
	id := int(v)
	if id < 0 || id >= vocab {
		id = 1 // features.UnkID
	}
	return id
}

// opInput copies the raw program input into a vector buffer.
type opInput struct {
	out int
}

func (o *opInput) run(a *arena, x []float64, _ int) {
	copy(a.bufs[o.out], x)
}

// opEmbedSeq embeds input tokens into a sequence buffer, fusing the
// positional add when present.
type opEmbedSeq struct {
	w           []float64
	pos         []float64 // nil: no positional table
	vocab, dim  int
	seqLen, out int
}

func (o *opEmbedSeq) run(a *arena, x []float64, from int) {
	out := a.bufs[o.out]
	for t := from; t < o.seqLen; t++ {
		id := tokenID(x[t], o.vocab)
		row := o.w[id*o.dim : (id+1)*o.dim]
		dst := out[t*o.dim : (t+1)*o.dim]
		if o.pos != nil {
			pr := o.pos[t*o.dim : (t+1)*o.dim]
			for i, v := range row {
				dst[i] = v + pr[i]
			}
		} else {
			copy(dst, row)
		}
	}
}

// opEmbedMean fuses embedding lookup with mean pooling (the ESCORT front).
type opEmbedMean struct {
	w           []float64
	vocab, dim  int
	seqLen, out int
}

func (o *opEmbedMean) run(a *arena, x []float64, _ int) {
	out := a.bufs[o.out]
	clear(out)
	for t := 0; t < o.seqLen; t++ {
		id := tokenID(x[t], o.vocab)
		row := o.w[id*o.dim : (id+1)*o.dim]
		for i, v := range row {
			out[i] += v
		}
	}
	inv := 1 / float64(o.seqLen)
	for i := range out {
		out[i] *= inv
	}
}

// opDense applies y = act(Wx + b) over a vector buffer.
type opDense struct {
	m       mat
	b       []float64
	act     Act
	in, out int
}

func (o *opDense) run(a *arena, x []float64, _ int) {
	xv := a.bufs[o.in]
	y := a.bufs[o.out]
	o.m.matvec(xv, o.b, y)
	if o.act == ReLU {
		for i, s := range y {
			if !(s > 0) {
				y[i] = 0
			}
		}
	}
}

// opLayerNorm normalizes a vector buffer.
type opLayerNorm struct {
	gain, bias []float64
	in, out    int
}

func (o *opLayerNorm) run(a *arena, _ []float64, _ int) {
	layerNormRow(a.bufs[o.in], a.bufs[o.out], o.gain, o.bias)
}

// opGRU runs the recurrence over a sequence buffer, writing the final
// hidden state. Gate vectors live in preplanned scratch.
type opGRU struct {
	wz, uz, wr, ur, wh, uh mat
	bz, br, bh             []float64
	inDim, hidden, seqLen  int
	in, out                int
	zB, rB, rhB, htB       int
}

func (o *opGRU) run(a *arena, _ []float64, _ int) {
	seq := a.bufs[o.in]
	h := a.bufs[o.out]
	clear(h)
	z, r, rh, ht := a.bufs[o.zB], a.bufs[o.rB], a.bufs[o.rhB], a.bufs[o.htB]
	for t := 0; t < o.seqLen; t++ {
		xt := seq[t*o.inDim : (t+1)*o.inDim]
		o.wz.matvec(xt, nil, z)
		o.uz.matvecAcc(h, o.bz, z)
		o.wr.matvec(xt, nil, r)
		o.ur.matvecAcc(h, o.br, r)
		sigmoidSlice(z)
		sigmoidSlice(r)
		for j := 0; j < o.hidden; j++ {
			rh[j] = r[j] * h[j]
		}
		o.wh.matvec(xt, nil, ht)
		o.uh.matvecAcc(rh, o.bh, ht)
		tanhSlice(ht)
		for j := 0; j < o.hidden; j++ {
			h[j] = (1-z[j])*h[j] + z[j]*ht[j]
		}
	}
}

// attnCore is the shared multi-head attention machinery: projection into
// flat Q/K/V buffers and per-query-row softmax-weighted context.
type attnCore struct {
	wq, wk, wv, wo mat
	bq, bk, bv, bo []float64
	heads, dim     int
	seqLen         int
	qB, kB, vB     int // qB < 0: no Q buffer (cross-attention)
	scoresB, ctxB  int
	causal         bool
}

// project fills rows from..seqLen of the K/V (and, when planned, Q)
// buffers from a sequence.
func (c *attnCore) project(a *arena, src []float64, from int) {
	k, v := a.bufs[c.kB], a.bufs[c.vB]
	var q []float64
	if c.qB >= 0 {
		q = a.bufs[c.qB]
	}
	for s := from; s < c.seqLen; s++ {
		xs := src[s*c.dim : (s+1)*c.dim]
		if q != nil {
			c.wq.matvec(xs, c.bq, q[s*c.dim:(s+1)*c.dim])
		}
		c.wk.matvec(xs, c.bk, k[s*c.dim:(s+1)*c.dim])
		c.wv.matvec(xs, c.bv, v[s*c.dim:(s+1)*c.dim])
	}
}

// attendRow computes softmax(qrow·Kᵀ/√dk)·V over positions [0,limit) into
// the ctx scratch and returns it. Mirrors nn's attend: per-head max-shifted
// softmax, masked positions contribute exactly nothing.
func (c *attnCore) attendRow(a *arena, qrow []float64, limit int) []float64 {
	ctx := a.bufs[c.ctxB]
	clear(ctx)
	scores := a.bufs[c.scoresB]
	k, v := a.bufs[c.kB], a.bufs[c.vB]
	dk := c.dim / c.heads
	scale := 1 / math.Sqrt(float64(dk))
	for h := 0; h < c.heads; h++ {
		off := h * dk
		qh := qrow[off : off+dk]
		var maxV float64
		for t := 0; t < limit; t++ {
			krow := k[t*c.dim+off : t*c.dim+off+dk : t*c.dim+off+dk]
			var d0, d1, d2, d3 float64
			j := 0
			for ; j+4 <= dk; j += 4 {
				d0 += qh[j] * krow[j]
				d1 += qh[j+1] * krow[j+1]
				d2 += qh[j+2] * krow[j+2]
				d3 += qh[j+3] * krow[j+3]
			}
			dot := (d0 + d1) + (d2 + d3)
			for ; j < dk; j++ {
				dot += qh[j] * krow[j]
			}
			s := dot * scale
			scores[t] = s
			if t == 0 || s > maxV {
				maxV = s
			}
		}
		sum := softmaxShifted(scores[:limit], maxV)
		// One reciprocal instead of a division per attention weight; the
		// products land within 1ulp of the closure's per-element divisions.
		inv := 1 / sum
		ch := ctx[off : off+dk]
		for t := 0; t < limit; t++ {
			av := scores[t] * inv
			if av == 0 {
				continue
			}
			vrow := v[t*c.dim+off : t*c.dim+off+dk]
			for j, vv := range vrow {
				ch[j] += av * vv
			}
		}
	}
	return ctx
}

// limitAt mirrors the closure's causal mask: position s sees [0, s+1)
// unless that already covers the whole sequence.
func (c *attnCore) limitAt(s int) int {
	if c.causal && s+1 < c.seqLen {
		return s + 1
	}
	return c.seqLen
}

// opSelfAttn applies bare multi-head self-attention (SCSGuard's encoder).
type opSelfAttn struct {
	core    attnCore
	in, out int
}

func (o *opSelfAttn) run(a *arena, _ []float64, _ int) {
	src := a.bufs[o.in]
	o.core.project(a, src, 0)
	out := a.bufs[o.out]
	q := a.bufs[o.core.qB]
	dim := o.core.dim
	for s := 0; s < o.core.seqLen; s++ {
		ctx := o.core.attendRow(a, q[s*dim:(s+1)*dim], o.core.limitAt(s))
		o.core.wo.matvec(ctx, o.core.bo, out[s*dim:(s+1)*dim])
	}
}

// opBlock applies one pre-norm transformer block in place:
// x += Wo·attn(LN1(x)); x += FF2(GELU(FF1(LN2(x)))). It updates rows
// from..seqLen; a causal row reads the K/V rows at or before it, so rows
// below from (left by the previous window of a prefix-safe run) stay valid.
type opBlock struct {
	g1, b1, g2, b2 []float64
	core           attnCore
	ff1, ff2       mat
	fb1, fb2       []float64
	dim, ffDim     int
	seq            int
	n1B, n2B, midB int
}

func (o *opBlock) run(a *arena, _ []float64, from int) {
	x := a.bufs[o.seq]
	n1 := a.bufs[o.n1B]
	dim := o.dim
	for s := from; s < o.core.seqLen; s++ {
		layerNormRow(x[s*dim:(s+1)*dim], n1[s*dim:(s+1)*dim], o.g1, o.b1)
	}
	o.core.project(a, n1, from)
	q := a.bufs[o.core.qB]
	for s := from; s < o.core.seqLen; s++ {
		ctx := o.core.attendRow(a, q[s*dim:(s+1)*dim], o.core.limitAt(s))
		o.core.wo.matvecAcc(ctx, o.core.bo, x[s*dim:(s+1)*dim])
	}
	n2 := a.bufs[o.n2B]
	mid := a.bufs[o.midB]
	for s := from; s < o.core.seqLen; s++ {
		xr := x[s*dim : (s+1)*dim]
		layerNormRow(xr, n2, o.g2, o.b2)
		o.ff1.matvec(n2, o.fb1, mid[:o.ffDim])
		geluSlice(mid[:o.ffDim])
		o.ff2.matvecAcc(mid[:o.ffDim], o.fb2, xr)
	}
}

// opCrossQuery attends one learned query over a sequence (T5's decoder
// read). The query's Wq projection is constant and folded at compile time.
type opCrossQuery struct {
	core    attnCore
	qproj   []float64
	in, out int
}

func (o *opCrossQuery) run(a *arena, _ []float64, _ int) {
	o.core.project(a, a.bufs[o.in], 0)
	ctx := o.core.attendRow(a, o.qproj, o.core.seqLen)
	o.core.wo.matvec(ctx, o.core.bo, a.bufs[o.out])
}

// opMeanPool averages a sequence buffer into a vector.
type opMeanPool struct {
	rows, cols int
	in, out    int
}

func (o *opMeanPool) run(a *arena, _ []float64, _ int) {
	seq := a.bufs[o.in]
	out := a.bufs[o.out]
	clear(out)
	for t := 0; t < o.rows; t++ {
		row := seq[t*o.cols : (t+1)*o.cols]
		for i, v := range row {
			out[i] += v
		}
	}
	inv := 1 / float64(o.rows)
	for i := range out {
		out[i] *= inv
	}
}

// opImageInput converts the pixel-major side×side×3 input into a
// channels-first image buffer (nn.FromFlatRGB's layout).
type opImageInput struct {
	side, out int
}

func (o *opImageInput) run(a *arena, x []float64, _ int) {
	img := a.bufs[o.out]
	side := o.side
	plane := side * side
	for y := 0; y < side; y++ {
		for xx := 0; xx < side; xx++ {
			base := (y*side + xx) * 3
			for c := 0; c < 3; c++ {
				img[c*plane+y*side+xx] = x[base+c]
			}
		}
	}
}

// opConv is the direct-loop convolution with fused bias and optional fused
// ReLU.
type opConv struct {
	m                         mat // rows = outC, cols = inC·K·K
	b                         []float64
	inC, outC, k, stride, pad int
	h, w, oh, ow              int
	relu                      bool
	in, out                   int
	// Per-kx output-column bounds (see bounds): they depend only on kx, so
	// hoisting them out of run removes two integer divisions per kernel tap
	// per row.
	oxLo, oxHi []int32
}

// bounds precomputes, for each kernel column kx, the [lo, hi) range of
// output columns whose source column kx-pad+ox·stride lands inside the
// image.
func (o *opConv) bounds() {
	o.oxLo = make([]int32, o.k)
	o.oxHi = make([]int32, o.k)
	for kx := 0; kx < o.k; kx++ {
		d := kx - o.pad
		lo := 0
		if d < 0 {
			lo = (-d + o.stride - 1) / o.stride
		}
		hi := o.ow
		if h := (o.w - d + o.stride - 1) / o.stride; h < hi {
			hi = h
		}
		if hi < lo {
			hi = lo
		}
		o.oxLo[kx], o.oxHi[kx] = int32(lo), int32(hi)
	}
}

func (o *opConv) run(a *arena, _ []float64, _ int) {
	src := a.bufs[o.in]
	dst := a.bufs[o.out]
	for oc := 0; oc < o.outC; oc++ {
		wrow := o.m.row(oc)
		bias := o.b[oc]
		for oy := 0; oy < o.oh; oy++ {
			drow := dst[(oc*o.oh+oy)*o.ow : (oc*o.oh+oy+1)*o.ow]
			for ox := range drow {
				drow[ox] = bias
			}
			for ic := 0; ic < o.inC; ic++ {
				for ky := 0; ky < o.k; ky++ {
					iy := oy*o.stride + ky - o.pad
					if iy < 0 || iy >= o.h {
						continue
					}
					srcRow := src[(ic*o.h+iy)*o.w : (ic*o.h+iy+1)*o.w]
					wOff := (ic*o.k + ky) * o.k
					// Each kernel tap sweeps the whole output row: the
					// boundary clipping lives in the precomputed ox
					// bounds, so the inner loop is branch-free with
					// per-element accumulation order identical to the
					// naive form.
					for kx := 0; kx < o.k; kx++ {
						wv := wrow[wOff+kx]
						d := kx - o.pad
						oxLo, oxHi := int(o.oxLo[kx]), int(o.oxHi[kx])
						if o.stride == 1 {
							sr := srcRow[oxLo+d : oxHi+d]
							dr := drow[oxLo:oxHi]
							for i, sv := range sr {
								dr[i] += wv * sv
							}
							continue
						}
						dr := drow[oxLo:oxHi]
						si := oxLo*o.stride + d
						for i := range dr {
							dr[i] += wv * srcRow[si]
							si += o.stride
						}
					}
				}
			}
			if o.relu {
				for ox := range drow {
					if !(drow[ox] > 0) {
						drow[ox] = 0
					}
				}
			}
		}
	}
}

// opECA applies Efficient Channel Attention in place.
type opECA struct {
	w          []float64
	k          int
	c, h, wd   int
	img        int
	gapB, attB int
}

func (o *opECA) run(a *arena, _ []float64, _ int) {
	img := a.bufs[o.img]
	gap := a.bufs[o.gapB]
	att := a.bufs[o.attB]
	plane := o.h * o.wd
	spatial := float64(plane)
	for c := 0; c < o.c; c++ {
		s := 0.0
		for _, v := range img[c*plane : (c+1)*plane] {
			s += v
		}
		gap[c] = s / spatial
	}
	half := o.k / 2
	for c := 0; c < o.c; c++ {
		s := 0.0
		for j := 0; j < o.k; j++ {
			idx := c + j - half
			if idx >= 0 && idx < o.c {
				s += o.w[j] * gap[idx]
			}
		}
		att[c] = sigmoid(s)
	}
	for c := 0; c < o.c; c++ {
		g := att[c]
		ch := img[c*plane : (c+1)*plane]
		for i := range ch {
			ch[i] *= g
		}
	}
}

// opGAP reduces an image buffer to per-channel means.
type opGAP struct {
	c, h, w int
	in, out int
}

func (o *opGAP) run(a *arena, _ []float64, _ int) {
	img := a.bufs[o.in]
	out := a.bufs[o.out]
	plane := o.h * o.w
	spatial := float64(plane)
	for c := 0; c < o.c; c++ {
		s := 0.0
		for _, v := range img[c*plane : (c+1)*plane] {
			s += v
		}
		out[c] = s / spatial
	}
}

// opPatchViT fuses ViT input assembly: patches are projected straight from
// the pixel-major input through a precomputed gather table, with the CLS
// token and positional embeddings added in the same pass.
type opPatchViT struct {
	m                mat // rows = dim, cols = patch·patch·3
	b, cls, pos      []float64
	side, patch, dim int
	idx              []int32 // patch-relative input offsets, gather order
	out              int
}

func (o *opPatchViT) run(a *arena, x []float64, _ int) {
	out := a.bufs[o.out]
	for i := 0; i < o.dim; i++ {
		out[i] = o.cls[i] + o.pos[i]
	}
	per := o.side / o.patch
	t := 1
	for py := 0; py < per; py++ {
		for px := 0; px < per; px++ {
			base := (py*o.patch*o.side + px*o.patch) * 3
			dst := out[t*o.dim : (t+1)*o.dim]
			pr := o.pos[t*o.dim : (t+1)*o.dim]
			for i := 0; i < o.dim; i++ {
				dst[i] = o.m.dotGather(i, x, base, o.idx) + o.b[i] + pr[i]
			}
			t++
		}
	}
}

// newAttnCore builds the shared attention state from an nn layer and the
// planned scratch handles [q,] k, v, scores, ctx.
func newAttnCore(m *nn.MultiHeadAttention, seqLen int, scratch []Buf, causal, hasQ bool) attnCore {
	c := attnCore{
		wq: newMat(m.Wq.W.W, m.Dim),
		wk: newMat(m.Wk.W.W, m.Dim),
		wv: newMat(m.Wv.W.W, m.Dim),
		wo: newMat(m.Wo.W.W, m.Dim),
		bq: slices.Clone(m.Wq.B.W), bk: slices.Clone(m.Wk.B.W),
		bv: slices.Clone(m.Wv.B.W), bo: slices.Clone(m.Wo.B.W),
		heads: m.Heads, dim: m.Dim, seqLen: seqLen, causal: causal,
	}
	if hasQ {
		c.qB, c.kB, c.vB = int(scratch[0]), int(scratch[1]), int(scratch[2])
		c.scoresB, c.ctxB = int(scratch[3]), int(scratch[4])
	} else {
		c.qB = -1
		c.kB, c.vB = int(scratch[0]), int(scratch[1])
		c.scoresB, c.ctxB = int(scratch[2]), int(scratch[3])
	}
	return c
}

// instantiate converts one recorded spec into an executable op, reading
// buffer geometry off the builder's shape plan.
func instantiate(b *Builder, spec opSpec) (op, error) {
	switch spec.kind {
	case kInput:
		return &opInput{out: int(spec.out)}, nil
	case kEmbedSeq:
		o := &opEmbedSeq{
			w: slices.Clone(spec.emb.W.W), vocab: spec.emb.Vocab, dim: spec.emb.Dim,
			seqLen: spec.seqLen, out: int(spec.out),
		}
		if spec.pos != nil {
			o.pos = slices.Clone(spec.pos.W)
		}
		return o, nil
	case kEmbedMean:
		return &opEmbedMean{
			w: slices.Clone(spec.emb.W.W), vocab: spec.emb.Vocab, dim: spec.emb.Dim,
			seqLen: spec.seqLen, out: int(spec.out),
		}, nil
	case kDense:
		return &opDense{
			m: newMat(spec.dense.W.W, spec.dense.In),
			b: slices.Clone(spec.dense.B.W), act: spec.act,
			in: int(spec.in), out: int(spec.out),
		}, nil
	case kLayerNorm:
		return &opLayerNorm{
			gain: slices.Clone(spec.ln.Gain.W), bias: slices.Clone(spec.ln.Bias.W),
			in: int(spec.in), out: int(spec.out),
		}, nil
	case kGRU:
		g := spec.gru
		return &opGRU{
			wz: newMat(g.Wz.W, g.In),
			uz: newMat(g.Uz.W, g.Hidden),
			wr: newMat(g.Wr.W, g.In),
			ur: newMat(g.Ur.W, g.Hidden),
			wh: newMat(g.Wh.W, g.In),
			uh: newMat(g.Uh.W, g.Hidden),
			bz: slices.Clone(g.Bz.W), br: slices.Clone(g.Br.W), bh: slices.Clone(g.Bh.W),
			inDim: g.In, hidden: g.Hidden, seqLen: spec.seqLen,
			in: int(spec.in), out: int(spec.out),
			zB: int(spec.scratch[0]), rB: int(spec.scratch[1]),
			rhB: int(spec.scratch[2]), htB: int(spec.scratch[3]),
		}, nil
	case kSelfAttn:
		return &opSelfAttn{
			core: newAttnCore(spec.mha, spec.seqLen, spec.scratch, spec.causal, true),
			in:   int(spec.in), out: int(spec.out),
		}, nil
	case kBlock:
		blk := spec.blk
		return &opBlock{
			g1: slices.Clone(blk.Norm1.Gain.W), b1: slices.Clone(blk.Norm1.Bias.W),
			g2: slices.Clone(blk.Norm2.Gain.W), b2: slices.Clone(blk.Norm2.Bias.W),
			core: newAttnCore(blk.Attn, spec.seqLen, spec.scratch[1:6], spec.causal, true),
			ff1:  newMat(blk.FF1.W.W, blk.Dim),
			ff2:  newMat(blk.FF2.W.W, blk.FFDim),
			fb1:  slices.Clone(blk.FF1.B.W), fb2: slices.Clone(blk.FF2.B.W),
			dim: blk.Dim, ffDim: blk.FFDim,
			seq: int(spec.in),
			n1B: int(spec.scratch[0]), n2B: int(spec.scratch[6]), midB: int(spec.scratch[7]),
		}, nil
	case kCrossQuery:
		m := spec.mha
		// Fold Wq·query + bq at compile time: it is input-independent.
		qproj := make([]float64, m.Dim)
		for o := 0; o < m.Dim; o++ {
			s := m.Wq.B.W[o]
			row := m.Wq.W.W[o*m.Dim : (o+1)*m.Dim]
			for i, qv := range spec.cls.W {
				s += row[i] * qv
			}
			qproj[o] = s
		}
		return &opCrossQuery{
			core:  newAttnCore(m, spec.seqLen, spec.scratch, false, false),
			qproj: qproj,
			in:    int(spec.in), out: int(spec.out),
		}, nil
	case kMeanPool:
		sh := b.shapeOf(spec.in)
		return &opMeanPool{rows: sh.rows, cols: sh.cols, in: int(spec.in), out: int(spec.out)}, nil
	case kImageInput:
		return &opImageInput{side: spec.side, out: int(spec.out)}, nil
	case kConv:
		c := spec.conv
		in, out := b.shapeOf(spec.in), b.shapeOf(spec.out)
		cv := &opConv{
			m:   newMat(c.W.W, c.InC*c.K*c.K),
			b:   slices.Clone(c.B.W),
			inC: c.InC, outC: c.OutC, k: c.K, stride: c.Stride, pad: c.Pad,
			h: in.imH, w: in.imW, oh: out.imH, ow: out.imW,
			relu: spec.relu,
			in:   int(spec.in), out: int(spec.out),
		}
		cv.bounds()
		return cv, nil
	case kECA:
		sh := b.shapeOf(spec.in)
		return &opECA{
			w: slices.Clone(spec.eca.W.W), k: spec.eca.K,
			c: sh.imC, h: sh.imH, wd: sh.imW,
			img:  int(spec.in),
			gapB: int(spec.scratch[0]), attB: int(spec.scratch[1]),
		}, nil
	case kGAP:
		sh := b.shapeOf(spec.in)
		return &opGAP{c: sh.imC, h: sh.imH, w: sh.imW, in: int(spec.in), out: int(spec.out)}, nil
	case kPatchViT:
		d := spec.dense
		p, side := spec.patch, spec.side
		idx := make([]int32, p*p*3)
		// Gather order mirrors vit.patches: y, then x, then channel.
		n := 0
		for dy := 0; dy < p; dy++ {
			for dx := 0; dx < p; dx++ {
				for c := 0; c < 3; c++ {
					idx[n] = int32((dy*side+dx)*3 + c)
					n++
				}
			}
		}
		return &opPatchViT{
			m: newMat(d.W.W, d.In),
			b: slices.Clone(d.B.W), cls: slices.Clone(spec.cls.W), pos: slices.Clone(spec.pos.W),
			side: side, patch: p, dim: d.Out, idx: idx,
			out: int(spec.out),
		}, nil
	default:
		return nil, fmt.Errorf("flat: unknown op kind %d", int(spec.kind))
	}
}

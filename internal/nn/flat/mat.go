package flat

import "slices"

// mat is a row-major weight matrix. Dot products accumulate over
// independent lanes so the additions pipeline instead of serializing on one
// dependency chain; the reassociation moves the result ~1e-16 relative to
// the closure layers' left-to-right order, noise against the 1e-6 parity
// budget.
type mat struct {
	cols int
	w    []float64
}

// newMat copies a row-major float64 training weight matrix of cols columns.
func newMat(w []float64, cols int) mat {
	return mat{cols: cols, w: slices.Clone(w)}
}

// row returns row o.
func (m *mat) row(o int) []float64 {
	return m.w[o*m.cols : (o+1)*m.cols]
}

// dotLanes is the shared 4-lane kernel over a dense row.
func dotLanes(row, x []float64) float64 {
	x = x[:len(row)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(row); i += 4 {
		s0 += row[i] * x[i]
		s1 += row[i+1] * x[i+1]
		s2 += row[i+2] * x[i+2]
		s3 += row[i+3] * x[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(row); i++ {
		s += row[i] * x[i]
	}
	return s
}

// matvec computes dst[i] = row(i)·x + b[i] for every row (b may be nil).
// It processes two rows per pass with two column lanes each — four
// independent accumulator chains sharing one stream of x loads — which
// beats len(dst) separate dot calls on the short rows the deep models are
// made of.
func (m *mat) matvec(x, b, dst []float64) {
	cols := m.cols
	x = x[:cols]
	o := 0
	for ; o+2 <= len(dst); o += 2 {
		r0 := m.w[o*cols : (o+1)*cols]
		r1 := m.w[(o+1)*cols : (o+2)*cols : (o+2)*cols]
		var a0, a1, c0, c1 float64
		j := 0
		for ; j+2 <= cols; j += 2 {
			x0, x1 := x[j], x[j+1]
			a0 += r0[j] * x0
			a1 += r0[j+1] * x1
			c0 += r1[j] * x0
			c1 += r1[j+1] * x1
		}
		s0, s1 := a0+a1, c0+c1
		for ; j < cols; j++ {
			s0 += r0[j] * x[j]
			s1 += r1[j] * x[j]
		}
		if b != nil {
			s0 += b[o]
			s1 += b[o+1]
		}
		dst[o], dst[o+1] = s0, s1
	}
	if o < len(dst) {
		s := dotLanes(m.w[o*cols:(o+1)*cols], x)
		if b != nil {
			s += b[o]
		}
		dst[o] = s
	}
}

// matvecAcc computes dst[i] = (dst[i] + row(i)·x) + b[i] (b may be nil) —
// the accumulate form the GRU gates and residual adds need.
func (m *mat) matvecAcc(x, b, dst []float64) {
	cols := m.cols
	x = x[:cols]
	o := 0
	for ; o+2 <= len(dst); o += 2 {
		r0 := m.w[o*cols : (o+1)*cols]
		r1 := m.w[(o+1)*cols : (o+2)*cols : (o+2)*cols]
		var a0, a1, c0, c1 float64
		j := 0
		for ; j+2 <= cols; j += 2 {
			x0, x1 := x[j], x[j+1]
			a0 += r0[j] * x0
			a1 += r0[j+1] * x1
			c0 += r1[j] * x0
			c1 += r1[j+1] * x1
		}
		s0, s1 := a0+a1, c0+c1
		for ; j < cols; j++ {
			s0 += r0[j] * x[j]
			s1 += r1[j] * x[j]
		}
		s0, s1 = dst[o]+s0, dst[o+1]+s1
		if b != nil {
			s0 += b[o]
			s1 += b[o+1]
		}
		dst[o], dst[o+1] = s0, s1
	}
	if o < len(dst) {
		s := dst[o] + dotLanes(m.w[o*cols:(o+1)*cols], x)
		if b != nil {
			s += b[o]
		}
		dst[o] = s
	}
}

// dotGather returns row(o)·x[base+idx[j]] — a dot product over a strided
// gather of the raw program input (the ViT patch projection).
func (m *mat) dotGather(o int, x []float64, base int, idx []int32) float64 {
	row := m.row(o)
	var s0, s1 float64
	j := 0
	for ; j+2 <= len(idx); j += 2 {
		s0 += row[j] * x[base+int(idx[j])]
		s1 += row[j+1] * x[base+int(idx[j+1])]
	}
	s := s0 + s1
	for ; j < len(idx); j++ {
		s += row[j] * x[base+int(idx[j])]
	}
	return s
}

package flat

import "math"

// Batched transcendentals for the flat forward pass.
//
// math.Exp on amd64 is a single serial dependency chain ~15ns long, and the
// deep models call it thousands of times per score (softmax rows, GRU
// gates). expNeg4 runs math.Exp's argument reduction over four independent
// lanes so the chains pipeline, and restricts itself to the x <= 0 domain
// every caller in this package lives in (softmax is max-shifted, the stable
// sigmoid and the tanh identity both feed -|x|).
// The reduced-range polynomial is a degree-7 Taylor expansion rather than
// math.Exp's rational form: it trades the rational's 16-cycle division for
// seven pipelinable multiply-adds at a relative error of ~6e-10 on
// |r| <= ln2/2. Compounded through the deepest model (24 GRU steps) the
// drift against the closure forward stays ~1e-8 — two orders of magnitude
// inside the 1e-6 parity budget, which the parity tests re-measure over
// every deep model.

const (
	expLn2Hi    = 6.93147180369123816490e-01
	expLn2Lo    = 1.90821492927058770002e-10
	expLog2e    = 1.44269504088896338700e+00
	expNearZero = 1.0 / (1 << 28)

	expC2 = 1.0 / 2
	expC3 = 1.0 / 6
	expC4 = 1.0 / 24
	expC5 = 1.0 / 120
	expC6 = 1.0 / 720
	expC7 = 1.0 / 5040
)

// expPoly evaluates e^r on the reduced range |r| <= ln2/2.
func expPoly(r float64) float64 {
	p := expC7
	p = p*r + expC6
	p = p*r + expC5
	p = p*r + expC4
	p = p*r + expC3
	p = p*r + expC2
	p = p*r + 1
	return p*r + 1
}

// expNeg1 is the single-lane core for x in (-700, -expNearZero].
func expNeg1(x float64) float64 {
	k := int(expLog2e*x - 0.5)
	fk := float64(k)
	r := (x - fk*expLn2Hi) - fk*expLn2Lo
	// The result is in [0.5, 2) and k in (-1011, 0]: scaling by 2^k via the
	// exponent bits is exact and cannot denormalize (we bailed below -700).
	return expPoly(r) * math.Float64frombits(uint64(1023+k)<<52)
}

// expNeg computes e^x for x <= 0, deferring to math.Exp outside the fast
// core's domain (near-zero inputs and deep underflow).
func expNeg(x float64) float64 {
	if x > -expNearZero || x < -700 {
		return math.Exp(x)
	}
	return expNeg1(x)
}

// expNeg4 computes e^x for four independent non-positive arguments. Any lane
// outside the fast domain falls back to math.Exp; the rest pipeline.
func expNeg4(x0, x1, x2, x3 float64) (float64, float64, float64, float64) {
	if x0 <= -expNearZero && x0 >= -700 &&
		x1 <= -expNearZero && x1 >= -700 &&
		x2 <= -expNearZero && x2 >= -700 &&
		x3 <= -expNearZero && x3 >= -700 {
		k0 := int(expLog2e*x0 - 0.5)
		k1 := int(expLog2e*x1 - 0.5)
		k2 := int(expLog2e*x2 - 0.5)
		k3 := int(expLog2e*x3 - 0.5)
		f0, f1, f2, f3 := float64(k0), float64(k1), float64(k2), float64(k3)
		r0 := (x0 - f0*expLn2Hi) - f0*expLn2Lo
		r1 := (x1 - f1*expLn2Hi) - f1*expLn2Lo
		r2 := (x2 - f2*expLn2Hi) - f2*expLn2Lo
		r3 := (x3 - f3*expLn2Hi) - f3*expLn2Lo
		p0, p1, p2, p3 := expC7, expC7, expC7, expC7
		p0 = p0*r0 + expC6
		p1 = p1*r1 + expC6
		p2 = p2*r2 + expC6
		p3 = p3*r3 + expC6
		p0 = p0*r0 + expC5
		p1 = p1*r1 + expC5
		p2 = p2*r2 + expC5
		p3 = p3*r3 + expC5
		p0 = p0*r0 + expC4
		p1 = p1*r1 + expC4
		p2 = p2*r2 + expC4
		p3 = p3*r3 + expC4
		p0 = p0*r0 + expC3
		p1 = p1*r1 + expC3
		p2 = p2*r2 + expC3
		p3 = p3*r3 + expC3
		p0 = p0*r0 + expC2
		p1 = p1*r1 + expC2
		p2 = p2*r2 + expC2
		p3 = p3*r3 + expC2
		p0 = p0*r0 + 1
		p1 = p1*r1 + 1
		p2 = p2*r2 + 1
		p3 = p3*r3 + 1
		p0 = p0*r0 + 1
		p1 = p1*r1 + 1
		p2 = p2*r2 + 1
		p3 = p3*r3 + 1
		return p0 * math.Float64frombits(uint64(1023+k0)<<52),
			p1 * math.Float64frombits(uint64(1023+k1)<<52),
			p2 * math.Float64frombits(uint64(1023+k2)<<52),
			p3 * math.Float64frombits(uint64(1023+k3)<<52)
	}
	return expNeg(x0), expNeg(x1), expNeg(x2), expNeg(x3)
}

// softmaxShifted exponentiates xs in place given its max (so every argument
// is <= 0) and returns the sum of the exponentials.
func softmaxShifted(xs []float64, maxV float64) float64 {
	var sum float64
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		e0, e1, e2, e3 := expNeg4(xs[i]-maxV, xs[i+1]-maxV, xs[i+2]-maxV, xs[i+3]-maxV)
		xs[i], xs[i+1], xs[i+2], xs[i+3] = e0, e1, e2, e3
		sum += (e0 + e1) + (e2 + e3)
	}
	for ; i < len(xs); i++ {
		e := math.Exp(xs[i] - maxV)
		xs[i] = e
		sum += e
	}
	return sum
}

// sigmoidSlice applies the overflow-stable sigmoid to xs in place, batching
// the exponentials: sigmoid(x) = 1/(1+e^{-x}) = e^{x}/(1+e^{x}), both forms
// evaluated through e^{-|x|} exactly as sigmoid does.
func sigmoidSlice(xs []float64) {
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		v0, v1, v2, v3 := xs[i], xs[i+1], xs[i+2], xs[i+3]
		e0, e1, e2, e3 := expNeg4(-math.Abs(v0), -math.Abs(v1), -math.Abs(v2), -math.Abs(v3))
		xs[i] = sigmoidFromExp(v0, e0)
		xs[i+1] = sigmoidFromExp(v1, e1)
		xs[i+2] = sigmoidFromExp(v2, e2)
		xs[i+3] = sigmoidFromExp(v3, e3)
	}
	for ; i < len(xs); i++ {
		xs[i] = sigmoid(xs[i])
	}
}

// sigmoidFromExp finishes the stable sigmoid given z = e^{-|v|}.
func sigmoidFromExp(v, z float64) float64 {
	if v >= 0 {
		return 1 / (1 + z)
	}
	return z / (1 + z)
}

// geluSlice applies nn.GELU's tanh approximation to xs in place, routing
// the tanh through the batched exponential.
func geluSlice(xs []float64) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		v0, v1, v2, v3 := xs[i], xs[i+1], xs[i+2], xs[i+3]
		u0 := c * (v0 + 0.044715*v0*v0*v0)
		u1 := c * (v1 + 0.044715*v1*v1*v1)
		u2 := c * (v2 + 0.044715*v2*v2*v2)
		u3 := c * (v3 + 0.044715*v3*v3*v3)
		z0, z1, z2, z3 := expNeg4(-2*math.Abs(u0), -2*math.Abs(u1), -2*math.Abs(u2), -2*math.Abs(u3))
		xs[i] = 0.5 * v0 * (1 + math.Copysign((1-z0)/(1+z0), u0))
		xs[i+1] = 0.5 * v1 * (1 + math.Copysign((1-z1)/(1+z1), u1))
		xs[i+2] = 0.5 * v2 * (1 + math.Copysign((1-z2)/(1+z2), u2))
		xs[i+3] = 0.5 * v3 * (1 + math.Copysign((1-z3)/(1+z3), u3))
	}
	for ; i < len(xs); i++ {
		xs[i] = gelu(xs[i])
	}
}

// tanhSlice applies tanh to xs in place through the e^{-2|x|} identity:
// tanh(x) = sign(x) · (1-z)/(1+z) with z = e^{-2|x|}. Within ~2ulp of
// math.Tanh across the GRU's operating range.
func tanhSlice(xs []float64) {
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		v0, v1, v2, v3 := xs[i], xs[i+1], xs[i+2], xs[i+3]
		z0, z1, z2, z3 := expNeg4(-2*math.Abs(v0), -2*math.Abs(v1), -2*math.Abs(v2), -2*math.Abs(v3))
		xs[i] = math.Copysign((1-z0)/(1+z0), v0)
		xs[i+1] = math.Copysign((1-z1)/(1+z1), v1)
		xs[i+2] = math.Copysign((1-z2)/(1+z2), v2)
		xs[i+3] = math.Copysign((1-z3)/(1+z3), v3)
	}
	for ; i < len(xs); i++ {
		v := xs[i]
		z := expNeg(-2 * math.Abs(v))
		xs[i] = math.Copysign((1-z)/(1+z), v)
	}
}

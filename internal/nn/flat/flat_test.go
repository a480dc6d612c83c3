package flat

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/phishinghook/phishinghook/internal/nn"
)

// denseProgram compiles Input → Dense+ReLU → Logits over fresh random
// layers.
func denseProgram(t testing.TB, seed int64, in, hid int) (*Program, *nn.Dense, *nn.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d1 := nn.NewDense("t.d1", in, hid, rng)
	for i := range d1.B.W {
		d1.B.W[i] = rng.NormFloat64() * 0.1
	}
	d2 := nn.NewDense("t.d2", hid, 2, rng)
	b := NewBuilder(in)
	h := b.Input()
	h = b.Dense(d1, h, ReLU)
	b.Logits(d2, h)
	p, err := b.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p, d1, d2
}

// closureScore runs the same network through the training closures.
func closureScore(d1, d2 *nn.Dense, x []float64) float64 {
	h, _ := d1.Forward(x)
	a, _ := nn.ReLU(h)
	logits, _ := d2.Forward(a)
	return nn.Softmax(logits)[1]
}

func TestDenseParityF64(t *testing.T) {
	p, d1, d2 := denseProgram(t, 1, 16, 8)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		x := make([]float64, 16)
		for i := range x {
			x[i] = rng.NormFloat64() * 3
		}
		got, err := p.Forward(x)
		if err != nil {
			t.Fatalf("Forward: %v", err)
		}
		want := closureScore(d1, d2, x)
		if d := math.Abs(got - want); d > 1e-12 {
			t.Fatalf("trial %d: flat %v vs closure %v (Δ=%g)", trial, got, want, d)
		}
	}
}

func FuzzFlatDenseParity(f *testing.F) {
	p, d1, d2 := denseProgram(f, 5, 4, 6)
	f.Add(0.5, -1.25, 3.5, 0.0)
	f.Add(100.0, -100.0, 1e-9, -1e-9)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		x := []float64{a, b, c, d}
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		got, err := p.Forward(x)
		if err != nil {
			t.Fatalf("Forward: %v", err)
		}
		want := closureScore(d1, d2, x)
		if math.IsNaN(want) {
			t.Skip() // degenerate logits (overflow) have no defined parity
		}
		if diff := math.Abs(got - want); diff > 1e-9 {
			t.Fatalf("flat %v vs closure %v (Δ=%g)", got, want, diff)
		}
	})
}

func TestForwardZeroAlloc(t *testing.T) {
	p, _, _ := denseProgram(t, 6, 16, 8)
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i) * 0.25
	}
	p.Forward(x) // warm the pool
	if allocs := testing.AllocsPerRun(200, func() { p.Forward(x) }); allocs != 0 {
		t.Fatalf("Forward allocates %v per op, want 0", allocs)
	}
}

// causalProgram compiles a GPT-2-shaped program (token embedding with a
// positional table, two causal blocks, mean pool, norm, logits) over fresh
// random layers.
func causalProgram(t testing.TB, seed int64, vocab, seqLen int) *Program {
	t.Helper()
	const dim, heads = 8, 2
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(seqLen)
	x := b.EmbedSeq(nn.NewEmbedding("t.emb", vocab, dim, rng), seqLen,
		nn.NewParam("t.pos", seqLen*dim, nn.NormalInit(rng, 0.1)))
	for i := 0; i < 2; i++ {
		b.Block(nn.NewTransformerBlock("t.blk", dim, heads, 2*dim, rng), x, true)
	}
	h := b.LayerNorm(nn.NewLayerNorm("t.ln", dim), b.MeanPool(x))
	b.Logits(nn.NewDense("t.head", dim, 2, rng), h)
	p, err := b.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if !p.PrefixSafe() {
		t.Fatal("causal program is not prefix-safe")
	}
	return p
}

// TestForwardConcurrent: 8 goroutines share one dense program through
// Forward and one causal program through ForwardRun (meaningful under
// -race: the pool must hand each goroutine its own arena, and a run's
// reused rows must be its own).
func TestForwardConcurrent(t *testing.T) {
	p, d1, d2 := denseProgram(t, 7, 16, 8)
	const vocab, seqLen = 12, 10
	lm := causalProgram(t, 7, vocab, seqLen)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				x := make([]float64, 16)
				for j := range x {
					x[j] = rng.NormFloat64()
				}
				got, err := p.Forward(x)
				if err != nil {
					t.Errorf("Forward: %v", err)
					return
				}
				if want := closureScore(d1, d2, x); math.Abs(got-want) > 1e-12 {
					t.Errorf("flat %v vs closure %v", got, want)
					return
				}
			}
			for r := 0; r < 50; r++ {
				// Each window keeps a random prefix of the one before it.
				run := make([][]float64, 6)
				for i := range run {
					run[i] = make([]float64, seqLen)
					keep := 0
					if i > 0 {
						keep = rng.Intn(seqLen + 1)
						copy(run[i], run[i-1][:keep])
					}
					for j := keep; j < seqLen; j++ {
						run[i][j] = float64(rng.Intn(vocab))
					}
				}
				out := make([]float64, len(run))
				if err := lm.ForwardRun(run, out); err != nil {
					t.Errorf("ForwardRun: %v", err)
					return
				}
				for i, w := range run {
					if want, _ := lm.Forward(w); out[i] != want {
						t.Errorf("ForwardRun window %d: %v != Forward %v", i, out[i], want)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestInputSizeError(t *testing.T) {
	p, _, _ := denseProgram(t, 8, 16, 8)
	_, err := p.Forward(make([]float64, 3))
	var ise *InputSizeError
	if !errorsAs(err, &ise) {
		t.Fatalf("Forward on short input: %v, want *InputSizeError", err)
	}
	if ise.Got != 3 || ise.Want != 16 {
		t.Fatalf("InputSizeError = %+v", ise)
	}
	err = p.ForwardRun([][]float64{make([]float64, 16), make([]float64, 3)}, make([]float64, 2))
	if !errorsAs(err, &ise) || ise.Got != 3 {
		t.Fatalf("ForwardRun with a short window: %v, want *InputSizeError", err)
	}
	if err := p.ForwardRun(make([][]float64, 2), make([]float64, 1)); err == nil {
		t.Fatal("ForwardRun accepted fewer outputs than windows")
	}
}

// errorsAs avoids importing errors for one call (keeps the test deps tiny).
func errorsAs(err error, target **InputSizeError) bool {
	e, ok := err.(*InputSizeError)
	if ok {
		*target = e
	}
	return ok
}

func TestBuilderValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := nn.NewDense("t.d", 8, 2, rng)

	// Shape mismatch: Dense over a buffer of the wrong width.
	b := NewBuilder(4)
	h := b.Input()
	b.Logits(d, h) // d.In=8 over a 4-wide buffer
	if _, err := b.Compile(); err == nil {
		t.Fatal("Compile accepted a shape-mismatched Dense")
	}

	// No logits head.
	b = NewBuilder(4)
	b.Input()
	if _, err := b.Compile(); err == nil {
		t.Fatal("Compile accepted a program without logits")
	}

	// Non-binary head.
	wide := nn.NewDense("t.wide", 4, 3, rng)
	b = NewBuilder(4)
	b.Logits(wide, b.Input())
	if _, err := b.Compile(); err == nil {
		t.Fatal("Compile accepted a 3-class logits head")
	}
}

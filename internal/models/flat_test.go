package models

import (
	"errors"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/nn/flat"
)

// deepSpecNames lists every registry model that serves through a compiled
// flat program.
var deepSpecNames = []string{
	"ESCORT", "SCSGuard", "GPT-2α", "T5α", "GPT-2β", "T5β",
	"ECA+EfficientNet", "ViT+R2D2", "ViT+Freq",
}

// flatFamilies holds one deep model per flat op family: dense,
// GRU+attention, causal transformer, cross-attention transformer, conv+ECA
// and ViT. The β variants and ViT+Freq run the same ops.
var flatFamilies = []string{
	"ESCORT", "SCSGuard", "GPT-2α", "T5α", "ECA+EfficientNet", "ViT+R2D2",
}

// fitDeep trains a deep model on a small synthetic corpus and returns it
// with a transformed holdout.
func fitDeep(t testing.TB, name string, seed int64) (Scorer, [][]float64) {
	return fitDeepN(t, name, seed, 40, 16)
}

// fitDeepN is fitDeep with train training samples and hold holdout samples.
func fitDeepN(t testing.TB, name string, seed int64, train, hold int) (Scorer, [][]float64) {
	t.Helper()
	spec, err := SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := spec.New(seed, tinyNeural(seed)).(Scorer)
	if !ok {
		t.Fatalf("%s is not a Scorer", name)
	}
	if err := m.Fit(smallDataset(t, train, seed)); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	holdout := smallDataset(t, hold, seed+100)
	fz := m.Featurizer()
	xs := make([][]float64, len(holdout.Samples))
	for i, s := range holdout.Samples {
		xs[i] = fz.Transform(s.Bytecode)
	}
	return m, xs
}

// hasProgram reports whether a deep model has a compiled flat program
// installed.
func hasProgram(m Scorer) bool {
	fs, ok := m.(interface{ program() *flat.Program })
	return ok && fs.program() != nil
}

// TestFlatParityAllDeepModels: after Fit, ScoreFeatures serves through the
// compiled program and must match the closure reference to 1e-6 on
// every deep model (the ISSUE acceptance bound; in practice the paths agree
// to rounding error).
func TestFlatParityAllDeepModels(t *testing.T) {
	for _, name := range deepSpecNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, xs := fitDeep(t, name, 11)
			if !hasProgram(m) {
				t.Fatal("no compiled flat program installed after Fit")
			}
			for i, x := range xs {
				got, err := m.ScoreFeatures(x)
				if err != nil {
					t.Fatalf("sample %d: flat ScoreFeatures: %v", i, err)
				}
				want, err := ReferenceScoreFeatures(m, x)
				if err != nil {
					t.Fatalf("sample %d: reference: %v", i, err)
				}
				if d := math.Abs(got - want); d > 1e-6 {
					t.Fatalf("sample %d: flat %v vs closure %v (Δ=%g)", i, got, want, d)
				}
				if got < 0 || got > 1 || math.IsNaN(got) {
					t.Fatalf("sample %d: score %v outside [0,1]", i, got)
				}
			}
		})
	}
}

// TestFlatZeroAlloc: the compiled forward must not allocate per call once
// the scratch pool is warm — the tentpole's core guarantee.
func TestFlatZeroAlloc(t *testing.T) {
	for _, name := range flatFamilies {
		name := name
		t.Run(name, func(t *testing.T) {
			m, xs := fitDeep(t, name, 13)
			x := xs[0]
			if _, err := m.ScoreFeatures(x); err != nil { // warm the pool
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(100, func() { m.ScoreFeatures(x) }); allocs != 0 {
				t.Fatalf("ScoreFeatures allocates %v per op, want 0", allocs)
			}
		})
	}
}

// TestFlatGeomeanSpeedup is the flat program's regression floor: across
// one model per op family, the geomean speedup of ScoreFeatures over the
// closure reference stays at least 2x. Both paths run the same FLOPs and
// the same exponentials, so the speedup is the closure's allocation, tape
// and dispatch overhead removed (DESIGN §11.3); losing a fused kernel lands
// near 2x. Each model is fitted at seed 1 on 48 samples and timed over 64
// holdout samples, the two paths alternating in five rounds so load on a
// shared runner lands on both. Wall-clock ratios mean nothing under -race
// and take seconds, so the test skips there and in -short.
func TestFlatGeomeanSpeedup(t *testing.T) {
	if raceEnabled() || testing.Short() {
		t.Skip("wall-clock speedup gate: meaningless under -race, seconds-long for -short")
	}
	logSum := 0.0
	for _, name := range flatFamilies {
		m, xs := fitDeepN(t, name, 1, 48, 64)
		ref := func(x []float64) (float64, error) { return ReferenceScoreFeatures(m, x) }
		var refNs, flatNs float64
		for round := 0; round < 5; round++ {
			refNs += nsPerScore(t, xs, ref)
			flatNs += nsPerScore(t, xs, m.ScoreFeatures)
		}
		speedup := refNs / flatNs
		logSum += math.Log(speedup)
		t.Logf("%-18s ref %10.0f ns/op   flat %9.0f ns/op   %4.1fx", name, refNs/5, flatNs/5, speedup)
	}
	geomean := math.Exp(logSum / float64(len(flatFamilies)))
	t.Logf("geomean flat speedup %.2fx over %d models", geomean, len(flatFamilies))
	if geomean < 2.0 {
		t.Fatalf("geomean flat speedup %.2fx below the 2.0x floor", geomean)
	}
}

// nsPerScore scores every holdout vector, pass after pass, for at least
// 20 ms and returns the mean ns per call.
func nsPerScore(t *testing.T, xs [][]float64, score func([]float64) (float64, error)) float64 {
	t.Helper()
	calls, t0 := 0, time.Now()
	for time.Since(t0) < 20*time.Millisecond {
		for _, x := range xs {
			if _, err := score(x); err != nil {
				t.Fatal(err)
			}
		}
		calls += len(xs)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// raceEnabled reports whether the test binary runs under the race
// detector, which slows the two paths unevenly.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestFlatConcurrentScoreFeatures: a fitted model serves concurrent
// callers through one program (meaningful under -race; the scratch pool
// must hand each goroutine its own arena).
func TestFlatConcurrentScoreFeatures(t *testing.T) {
	m, xs := fitDeep(t, "SCSGuard", 17)
	want := make([]float64, len(xs))
	for i, x := range xs {
		var err error
		if want[i], err = m.ScoreFeatures(x); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for i, x := range xs {
					got, err := m.ScoreFeatures(x)
					if err != nil {
						t.Errorf("ScoreFeatures: %v", err)
						return
					}
					if got != want[i] {
						t.Errorf("sample %d: concurrent score %v != serial %v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestScoreFeaturesEmptyInput: the empty feature vector is a typed error
// on every deep model, through both the flat and the reference paths —
// this is the regression test for the MeanPool len-0 panic.
func TestScoreFeaturesEmptyInput(t *testing.T) {
	for _, name := range deepSpecNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, _ := fitDeep(t, name, 23)
			if _, err := m.ScoreFeatures(nil); !errors.Is(err, ErrEmptyInput) {
				t.Fatalf("flat path: err = %v, want ErrEmptyInput", err)
			}
			if _, err := ReferenceScoreFeatures(m, []float64{}); !errors.Is(err, ErrEmptyInput) {
				t.Fatalf("reference path: err = %v, want ErrEmptyInput", err)
			}
		})
	}
}

// TestGobRoundTripRecompilesFlat: UnmarshalBinary restores the weights AND
// recompiles the serving program (it lives outside the gob state), so the
// restored model scores identically through the flat path.
func TestGobRoundTripRecompilesFlat(t *testing.T) {
	for _, name := range []string{"ESCORT", "GPT-2β", "ViT+R2D2"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, xs := fitDeep(t, name, 29)
			blob, err := m.(Persistable).MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			spec, _ := SpecByName(name)
			fresh := spec.New(29, tinyNeural(29)).(Scorer)
			if err := fresh.(Persistable).UnmarshalBinary(blob); err != nil {
				t.Fatalf("UnmarshalBinary: %v", err)
			}
			if !hasProgram(fresh) {
				t.Fatal("no compiled flat program installed after UnmarshalBinary")
			}
			for i, x := range xs {
				want, _ := m.ScoreFeatures(x)
				got, err := fresh.ScoreFeatures(x)
				if err != nil {
					t.Fatalf("sample %d: restored score: %v", i, err)
				}
				if got != want {
					t.Fatalf("sample %d: restored %v != original %v", i, got, want)
				}
			}
		})
	}
}

// TestUnmarshalCorruptGob: garbage and cross-architecture blobs must fail
// with errors, never panic, and shape drift surfaces *ShapeMismatchError.
func TestUnmarshalCorruptGob(t *testing.T) {
	m, _ := fitDeep(t, "ESCORT", 31)
	blob, err := m.(Persistable).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := SpecByName("ESCORT")

	t.Run("garbage", func(t *testing.T) {
		fresh := spec.New(31, tinyNeural(31)).(Persistable)
		if err := fresh.UnmarshalBinary([]byte("not a gob stream")); err == nil {
			t.Fatal("garbage blob accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		fresh := spec.New(31, tinyNeural(31)).(Persistable)
		if err := fresh.UnmarshalBinary(blob[:len(blob)/2]); err == nil {
			t.Fatal("truncated blob accepted")
		}
	})
	t.Run("shape drift", func(t *testing.T) {
		// ESCORT's dims are architecture-fixed, so drift needs a model
		// whose parameter shapes follow NeuralConfig.
		lm, _ := fitDeep(t, "GPT-2α", 31)
		lmBlob, err := lm.(Persistable).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		lmSpec, _ := SpecByName("GPT-2α")
		cfg := tinyNeural(31)
		cfg.Dim = 16 // snapshot was trained at Dim 8
		fresh := lmSpec.New(31, cfg).(Persistable)
		err = fresh.UnmarshalBinary(lmBlob)
		var sme *ShapeMismatchError
		if !errors.As(err, &sme) {
			t.Fatalf("err = %v, want *ShapeMismatchError", err)
		}
		if sme.Param == "" || sme.Have == sme.Snapshot {
			t.Fatalf("mismatch detail: %+v", sme)
		}
	})
	t.Run("cross model", func(t *testing.T) {
		// An SCSGuard blob fed to an ESCORT instance: param mismatch, not
		// a panic.
		other, _ := fitDeep(t, "SCSGuard", 31)
		oblob, err := other.(Persistable).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fresh := spec.New(31, tinyNeural(31)).(Persistable)
		if err := fresh.UnmarshalBinary(oblob); err == nil {
			t.Fatal("cross-model blob accepted")
		}
	})
}

// benchDeep fits a model at serving dims (DefaultNeuralConfig, one epoch)
// for the flat-vs-closure benchmarks.
func benchDeep(b *testing.B, name string) (Scorer, []float64) {
	b.Helper()
	spec, err := SpecByName(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultNeuralConfig(41)
	cfg.Epochs = 1
	m := spec.New(41, cfg).(Scorer)
	if err := m.Fit(smallDataset(b, 32, 41)); err != nil {
		b.Fatal(err)
	}
	x := m.Featurizer().Transform(smallDataset(b, 1, 43).Samples[0].Bytecode)
	return m, x
}

func BenchmarkFlatScoreFeatures(b *testing.B) {
	for _, name := range deepSpecNames {
		b.Run(name, func(b *testing.B) {
			m, x := benchDeep(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.ScoreFeatures(x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReferenceScoreFeatures(b *testing.B) {
	for _, name := range deepSpecNames {
		b.Run(name, func(b *testing.B) {
			m, x := benchDeep(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReferenceScoreFeatures(m, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/phishinghook/phishinghook/internal/dataset"
	"github.com/phishinghook/phishinghook/internal/models"
	"github.com/phishinghook/phishinghook/internal/synth"
)

// nnModels are the deep models benchmarked by -nn: one per flat op family
// (dense, GRU+attention, causal transformer, cross-attention transformer,
// conv+ECA, ViT). The β variants reuse the α programs window-by-window, so
// they add training time without new op coverage.
var nnModels = []string{
	"ESCORT", "SCSGuard", "GPT-2α", "T5α", "ECA+EfficientNet", "ViT+R2D2",
}

// nnEntry is one model row of BENCH_nn.json.
type nnEntry struct {
	// RefNsPerOp is the closure-forward (training-path) ScoreFeatures.
	RefNsPerOp float64 `json:"ref_ns_per_op"`
	// FlatNsPerOp is the compiled flat program.
	FlatNsPerOp  float64 `json:"flat_ns_per_op"`
	FlatAllocsOp int64   `json:"flat_allocs_per_op"`
	FlatBytesOp  int64   `json:"flat_bytes_per_op"`
	Speedup      float64 `json:"speedup"`
	MaxAbsDeltaP float64 `json:"max_abs_delta_p"`
}

// nnBenchConfig records the serving-bench model dimensions inside the JSON
// artifact so the speedup numbers are anchored to an explicit config.
type nnBenchConfig struct {
	Dim       int `json:"dim"`
	Heads     int `json:"heads"`
	Blocks    int `json:"blocks"`
	SeqLen    int `json:"seq_len"`
	ImageSide int `json:"image_side"`
	Hidden    int `json:"hidden"`
}

// nnReport is the BENCH_nn.json envelope consumed by the CI guard.
type nnReport struct {
	GOOS           string             `json:"goos"`
	GOARCH         string             `json:"goarch"`
	NumCPU         int                `json:"num_cpu"`
	Seed           int64              `json:"seed"`
	Config         nnBenchConfig      `json:"config"`
	GeomeanSpeedup float64            `json:"geomean_speedup"`
	GeomeanFloor   float64            `json:"geomean_floor"`
	Models         map[string]nnEntry `json:"models"`
}

// nnGeomeanFloor is the CI regression bar for the geomean flat-vs-closure
// speedup. The measured value on the reference box is ~2.9x; the floor sits
// below it by enough to absorb shared-runner noise while still catching a
// lost kernel (dropping the fused exp or the blocked matvec lands ~2x).
// Single-core scalar Go caps the honest ceiling near 3x here: flat and
// closure execute the same FLOPs and the same exponential count, so the
// flat win is bounded by the closure's allocation/dispatch overhead — see
// DESIGN.md §11 for the full accounting.
const nnGeomeanFloor = 2.0

// nnCorpus generates a balanced synthetic train/holdout split without
// spinning up the full simulation plane (weights, not accuracy, are what
// the benchmark needs).
func nnCorpus(seed int64, n int) *dataset.Dataset {
	g := synth.NewGenerator(synth.DefaultConfig(seed))
	ds := &dataset.Dataset{}
	for i := 0; i < n; i++ {
		cls, lbl := synth.Benign, dataset.Benign
		if i%2 == 0 {
			cls, lbl = synth.Phishing, dataset.Phishing
		}
		ds.Samples = append(ds.Samples, dataset.Sample{
			Address: fmt.Sprint(i), Bytecode: g.Contract(cls, i%synth.NumMonths),
			Label: lbl, Month: i % synth.NumMonths,
		})
	}
	return ds
}

// runNNBench measures the deep-model serving path: closure reference vs
// compiled flat program, per model, and writes BENCH_nn.json. It fails when
// the flat path allocates, when float parity exceeds 1e-6, or when the
// geomean flat speedup drops below nnGeomeanFloor.
func runNNBench(seed int64, path string) error {
	// The serving-bench config (recorded in the artifact): a reduced model
	// scale so the whole suite fits a CI budget. The flat-vs-closure ratio
	// moves little with scale — both paths share FLOP and exponential
	// counts, so the ratio measures overhead removed, not dims.
	cfg := models.DefaultNeuralConfig(seed)
	cfg.Epochs = 1 // serving perf is architecture-bound, not training-bound
	cfg.Dim, cfg.Heads, cfg.Blocks = 8, 2, 1
	cfg.SeqLen, cfg.Stride = 24, 16
	cfg.ImageSide, cfg.Hidden = 8, 8
	cfg.VocabCap = 128
	train := nnCorpus(seed, 48)
	hold := nnCorpus(seed+100, 64)

	report := nnReport{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), Seed: seed,
		Config: nnBenchConfig{Dim: cfg.Dim, Heads: cfg.Heads, Blocks: cfg.Blocks,
			SeqLen: cfg.SeqLen, ImageSide: cfg.ImageSide, Hidden: cfg.Hidden},
		GeomeanFloor: nnGeomeanFloor,
		Models:       map[string]nnEntry{}}
	bench := func(fn func() (float64, error)) (float64, int64, int64, error) {
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fn(); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return 0, 0, 0, benchErr
		}
		return float64(r.T.Nanoseconds()) / float64(r.N), r.AllocsPerOp(), r.AllocedBytesPerOp(), nil
	}

	var failures []string
	logSpeedups := 0.0
	for _, name := range nnModels {
		spec, err := models.SpecByName(name)
		if err != nil {
			return err
		}
		m, ok := spec.New(seed, cfg).(models.Scorer)
		if !ok {
			return fmt.Errorf("%s: not a Scorer", name)
		}
		if err := m.Fit(train); err != nil {
			return fmt.Errorf("%s: fit: %w", name, err)
		}
		fz := m.Featurizer()
		xs := make([][]float64, len(hold.Samples))
		for i, s := range hold.Samples {
			xs[i] = fz.Transform(s.Bytecode)
		}

		var e nnEntry
		for _, x := range xs { // float parity over the whole holdout
			ref, err := models.ReferenceScoreFeatures(m, x)
			if err != nil {
				return fmt.Errorf("%s: reference score: %w", name, err)
			}
			got, err := m.ScoreFeatures(x)
			if err != nil {
				return fmt.Errorf("%s: flat score: %w", name, err)
			}
			if d := math.Abs(got - ref); d > e.MaxAbsDeltaP {
				e.MaxAbsDeltaP = d
			}
		}

		next := 0
		pick := func() []float64 { x := xs[next%len(xs)]; next++; return x }
		e.RefNsPerOp, _, _, err = bench(func() (float64, error) {
			return models.ReferenceScoreFeatures(m, pick())
		})
		if err != nil {
			return fmt.Errorf("%s: reference bench: %w", name, err)
		}
		e.FlatNsPerOp, e.FlatAllocsOp, e.FlatBytesOp, err = bench(func() (float64, error) {
			return m.ScoreFeatures(pick())
		})
		if err != nil {
			return fmt.Errorf("%s: flat bench: %w", name, err)
		}
		e.Speedup = e.RefNsPerOp / e.FlatNsPerOp
		logSpeedups += math.Log(e.Speedup)

		if e.FlatAllocsOp > 0 {
			failures = append(failures, fmt.Sprintf("%s: flat path allocates %d objects/op, want 0", name, e.FlatAllocsOp))
		}
		if e.MaxAbsDeltaP > 1e-6 {
			failures = append(failures, fmt.Sprintf("%s: float parity max|Δp|=%g exceeds 1e-6", name, e.MaxAbsDeltaP))
		}
		report.Models[name] = e
		fmt.Printf("%-18s ref %12.0f ns/op   flat %10.0f ns/op (%5.1fx, %d allocs)   max|Δp|=%.2g\n",
			name, e.RefNsPerOp, e.FlatNsPerOp, e.Speedup, e.FlatAllocsOp, e.MaxAbsDeltaP)
	}
	report.GeomeanSpeedup = math.Exp(logSpeedups / float64(len(nnModels)))
	fmt.Printf("geomean flat speedup: %.1fx over %d models\n", report.GeomeanSpeedup, len(nnModels))

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)

	if report.GeomeanSpeedup < nnGeomeanFloor {
		failures = append(failures, fmt.Sprintf("geomean flat speedup %.2fx below the %.1fx floor",
			report.GeomeanSpeedup, nnGeomeanFloor))
	}
	if len(failures) > 0 {
		return fmt.Errorf("nn serving regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

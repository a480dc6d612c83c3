package phishinghook

// One benchmark per table and figure of the paper's evaluation section.
// Each benchmark regenerates its artefact end to end (workload generation,
// training, measurement, statistical analysis) on a reduced corpus sized
// for laptop runs, reporting the headline numbers as custom benchmark
// metrics. cmd/benchtables prints the full rows/series (and its -full mode
// runs the paper-scale protocol).

import (
	"context"
	"io"
	"os"
	"sync"
	"testing"

	"github.com/phishinghook/phishinghook/internal/evm"
)

// benchNeural shrinks the neural models so the all-model benches finish in
// minutes; the calibrated experiment numbers come from cmd/benchtables.
func benchNeural(seed int64) NeuralConfig {
	cfg := DefaultNeuralConfig(seed)
	cfg.Epochs = 2
	cfg.Dim = 16
	cfg.Heads = 2
	cfg.SeqLen = 96
	cfg.Stride = 72
	cfg.MaxWindows = 2
	cfg.ImageSide = 16
	cfg.Hidden = 16
	return cfg
}

// benchState lazily builds the shared corpus and CV results so independent
// benchmarks don't repeat the expensive steps.
type benchState struct {
	sim     *Simulation
	ds      *Dataset
	results []CVResult
	scal    []ScalabilityPoint
}

var (
	benchOnce sync.Once
	benchCV   sync.Once
	benchSc   sync.Once
	state     benchState
)

func sharedSim(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultSimulationConfig(1)
		cfg.ObtainedPhishing = 240
		cfg.UniquePhishing = 120
		cfg.Benign = 120
		sim, err := StartSimulation(cfg)
		if err != nil {
			panic(err)
		}
		state.sim = sim
		state.ds = sim.Dataset()
	})
	return &state
}

func sharedCV(b *testing.B) *benchState {
	b.Helper()
	s := sharedSim(b)
	benchCV.Do(func() {
		f := New(s.sim.RPCURL(), s.sim.ExplorerURL(), WithNeuralConfig(benchNeural(1)))
		results, err := f.Evaluate(Models(), s.ds, CVConfig{Folds: 2, Runs: 1, Seed: 1})
		if err != nil {
			panic(err)
		}
		s.results = results
	})
	return s
}

func sharedScalability(b *testing.B) *benchState {
	b.Helper()
	s := sharedSim(b)
	benchSc.Do(func() {
		pts, err := RunScalability(ScalabilitySpecs(), benchNeural(2), s.ds, 2)
		if err != nil {
			panic(err)
		}
		s.scal = pts
	})
	return s
}

func BenchmarkTable1_OpcodeTable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RenderTable1(io.Discard)
	}
	b.ReportMetric(float64(len(evm.AllOpcodes())), "opcodes")
}

func BenchmarkTable2_ModelPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sharedCV(b)
		RenderTable2(io.Discard, s.results)
		if i == 0 {
			for _, r := range s.results {
				b.Logf("%-20s acc=%.4f f1=%.4f", r.Model, r.Mean().Accuracy, r.Mean().F1)
			}
			best := s.results[0]
			for _, r := range s.results {
				if r.Mean().Accuracy > best.Mean().Accuracy {
					best = r
				}
			}
			b.ReportMetric(best.Mean().Accuracy, "best_acc")
		}
	}
}

func BenchmarkTable3_KruskalWallis(b *testing.B) {
	s := sharedCV(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RenderTable3(io.Discard, s.results); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2_MonthlyDistribution(b *testing.B) {
	s := sharedSim(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RenderFig2(io.Discard, s.sim)
	}
	obtained, unique := s.sim.MonthlyPhishing()
	var to, tu int
	for m := range obtained {
		to += obtained[m]
		tu += unique[m]
	}
	b.ReportMetric(float64(to), "obtained")
	b.ReportMetric(float64(tu), "unique")
}

func BenchmarkFig3_OpcodeUsage(b *testing.B) {
	s := sharedSim(b)
	b.ResetTimer()
	var rows []UsageRow
	for i := 0; i < b.N; i++ {
		rows = OpcodeUsage(s.ds, Fig9Opcodes)
	}
	RenderFig3(io.Discard, rows)
	b.ReportMetric(float64(len(rows)), "opcodes")
}

func BenchmarkFig4_DunnPairwise(b *testing.B) {
	s := sharedCV(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, metric := range []string{"accuracy", "f1", "precision", "recall"} {
			if err := RenderFig4(io.Discard, s.results, metric); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig5_Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sharedScalability(b)
		RenderFig5(io.Discard, s.scal)
		if i == 0 {
			for _, p := range s.scal {
				if p.Split == 1 {
					b.Logf("%-20s full-split acc=%.4f", p.Model, p.Metrics.Accuracy)
				}
			}
		}
	}
}

func BenchmarkFig6_CriticalDifference(b *testing.B) {
	s := sharedScalability(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, metric := range []string{"accuracy", "precision", "recall", "f1"} {
			if err := RenderFig6(io.Discard, s.scal, metric); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig7_TimeMetrics(b *testing.B) {
	s := sharedScalability(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RenderFig7(io.Discard, s.scal)
	}
	// Report the paper's headline ratio: LM training cost over HSC.
	var rf, scs float64
	for _, p := range s.scal {
		if p.Split == 1 {
			switch p.Model {
			case "Random Forest":
				rf = float64(p.TrainTime)
			case "SCSGuard":
				scs = float64(p.TrainTime)
			}
		}
	}
	if rf > 0 {
		b.ReportMetric(scs/rf, "scsguard_vs_rf_train")
	}
}

func BenchmarkFig8_TimeResistance(b *testing.B) {
	cfg := DefaultSimulationConfig(8)
	cfg.ObtainedPhishing = 360
	cfg.UniquePhishing = 260
	cfg.Benign = 260
	cfg.MatchTemporal = true
	sim, err := StartSimulation(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	ds := sim.Dataset()
	spec, err := ModelByName("Random Forest")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res TimeResistanceResult
	for i := 0; i < b.N; i++ {
		res, err = RunTimeResistance(spec, benchNeural(8), ds, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	RenderFig8(io.Discard, []TimeResistanceResult{res})
	b.ReportMetric(res.AUT, "AUT")
}

func BenchmarkFig9_SHAP(b *testing.B) {
	s := sharedSim(b)
	b.ResetTimer()
	var infl []Influence
	var err error
	for i := 0; i < b.N; i++ {
		infl, err = SHAPAnalysis(s.ds, 9, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	RenderFig9(io.Discard, infl)
	if len(infl) > 0 {
		b.Logf("most influential opcode: %s (mean|phi|=%.5f)", infl[0].Name, infl[0].MeanAbs)
	}
}

// Micro-benchmarks for the hot substrate paths.

func BenchmarkPipeline_ExtractAndDisassemble(b *testing.B) {
	s := sharedSim(b)
	code := s.ds.Samples[0].Bytecode
	b.SetBytes(int64(len(code)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Disassemble(code)
	}
}

// Serving-path benchmarks: the Detector hot loop later PRs track for
// scoring throughput.

var (
	benchDetOnce sync.Once
	benchDet     *Detector
)

func sharedDetector(b *testing.B) (*Detector, *benchState) {
	b.Helper()
	s := sharedSim(b)
	benchDetOnce.Do(func() {
		spec, err := ModelByName("Random Forest")
		if err != nil {
			panic(err)
		}
		benchDet, err = Train(spec, s.ds, WithDetectorSeed(1))
		if err != nil {
			panic(err)
		}
	})
	return benchDet, s
}

func BenchmarkDetectorScore(b *testing.B) {
	d, s := sharedDetector(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Score(ctx, s.ds.Samples[i%s.ds.Len()].Bytecode); err != nil {
			b.Fatal(err)
		}
	}
	hits, misses := d.CacheStats()
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "cache_hit_ratio")
	}
}

func BenchmarkDetectorScoreBatch(b *testing.B) {
	d, s := sharedDetector(b)
	ctx := context.Background()
	codes := make([][]byte, s.ds.Len())
	var total int
	for i, smp := range s.ds.Samples {
		codes[i] = smp.Bytecode
		total += len(smp.Bytecode)
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ScoreBatch(ctx, codes); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(codes))*float64(b.N)/b.Elapsed().Seconds(), "contracts/s")
}

func BenchmarkPipeline_DatasetBuildHTTP(b *testing.B) {
	if os.Getenv("PHISHINGHOOK_BENCH_HTTP") == "" {
		b.Skip("set PHISHINGHOOK_BENCH_HTTP=1 (spins servers per iteration)")
	}
	for i := 0; i < b.N; i++ {
		cfg := DefaultSimulationConfig(int64(i))
		cfg.ObtainedPhishing = 60
		cfg.UniquePhishing = 30
		cfg.Benign = 30
		sim, err := StartSimulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f := New(sim.RPCURL(), sim.ExplorerURL())
		from, to := sim.StudyWindow()
		if _, err := f.BuildDataset(context.Background(), from, to, 1); err != nil {
			b.Fatal(err)
		}
		sim.Close()
	}
}

package phishinghook

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// tinyNeural shrinks the neural models so every family trains in a test.
func tinyNeural(seed int64) NeuralConfig {
	cfg := DefaultNeuralConfig(seed)
	cfg.Epochs = 1
	cfg.Dim = 8
	cfg.Heads = 2
	cfg.Blocks = 1
	cfg.SeqLen = 32
	cfg.Stride = 24
	cfg.MaxWindows = 2
	cfg.ImageSide = 8
	cfg.Patch = 4
	cfg.Hidden = 8
	cfg.VocabCap = 256
	return cfg
}

// detectorCorpus builds one small simulated dataset shared by the tests.
var detectorCorpus = struct {
	once sync.Once
	ds   *Dataset
	sim  *Simulation
}{}

func testCorpus(t testing.TB) (*Dataset, *Simulation) {
	t.Helper()
	detectorCorpus.once.Do(func() {
		cfg := DefaultSimulationConfig(5)
		cfg.ObtainedPhishing = 120
		cfg.UniquePhishing = 60
		cfg.Benign = 60
		sim, err := StartSimulation(cfg)
		if err != nil {
			panic(err)
		}
		detectorCorpus.sim = sim
		detectorCorpus.ds = sim.Dataset()
	})
	return detectorCorpus.ds, detectorCorpus.sim
}

// roundTripModels covers every family: HSC back-ends, both vision paths,
// the three LM encodings (bigram, α, β) and the ESCORT transfer model.
var roundTripModels = []string{
	"Random Forest",
	"k-NN",
	"SVM",
	"Logistic Regression",
	"XGBoost",
	"ECA+EfficientNet",
	"ViT+Freq",
	"SCSGuard",
	"T5α",
	"GPT-2β",
	"ESCORT",
}

// TestDetectorSaveLoadScoreRoundTrip trains, saves, loads and re-scores:
// the loaded detector must reproduce the trained detector's verdicts
// exactly on every corpus sample.
func TestDetectorSaveLoadScoreRoundTrip(t *testing.T) {
	ds, _ := testCorpus(t)
	ctx := context.Background()
	for _, name := range roundTripModels {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := ModelByName(name)
			if err != nil {
				t.Fatal(err)
			}
			det, err := Train(spec, ds, WithDetectorSeed(3), WithDetectorNeural(tinyNeural(3)))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := det.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadDetector(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.ModelName() != name {
				t.Fatalf("loaded model name %q, want %q", loaded.ModelName(), name)
			}
			if loaded.FeatureDim() != det.FeatureDim() {
				t.Fatalf("feature dim changed: %d vs %d", loaded.FeatureDim(), det.FeatureDim())
			}
			for i, s := range ds.Samples {
				want, err := det.Score(ctx, s.Bytecode)
				if err != nil {
					t.Fatal(err)
				}
				got, err := loaded.Score(ctx, s.Bytecode)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("sample %d: verdict changed after round-trip: %v vs %v", i, got, want)
				}
			}
		})
	}
}

// TestDetectorMatchesClassifier checks the serving path agrees with the
// evaluation path: Detector verdict labels equal the classifier's Predict
// labels for the same seed and sizing.
func TestDetectorMatchesClassifier(t *testing.T) {
	ds, _ := testCorpus(t)
	ctx := context.Background()
	for _, name := range []string{"Random Forest", "SCSGuard", "GPT-2β"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := ModelByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tinyNeural(9)
			det, err := Train(spec, ds, WithDetectorSeed(9), WithDetectorNeural(cfg))
			if err != nil {
				t.Fatal(err)
			}
			clf := spec.New(9, cfg)
			if err := clf.Fit(ds); err != nil {
				t.Fatal(err)
			}
			pred, err := clf.Predict(ds)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range ds.Samples {
				v, err := det.Score(ctx, s.Bytecode)
				if err != nil {
					t.Fatal(err)
				}
				got := 0
				if v.IsPhishing() {
					got = 1
				}
				if got != pred[i] {
					t.Fatalf("sample %d: Score label %d != Predict label %d", i, got, pred[i])
				}
			}
		})
	}
}

// TestDetectorScoreBatchConcurrent hammers one shared detector from many
// goroutines (run with -race): batches, singles and cache-hitting repeats
// must all agree with the sequential baseline.
func TestDetectorScoreBatchConcurrent(t *testing.T) {
	ds, _ := testCorpus(t)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, ds, WithDetectorSeed(1), WithFeatureCache(64))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	codes := make([][]byte, ds.Len())
	for i, s := range ds.Samples {
		codes[i] = s.Bytecode
	}
	baseline, err := det.ScoreBatch(ctx, codes)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			// Each goroutine scores a shuffled view of the corpus, mixing
			// batch and single calls.
			perm := rng.Perm(len(codes))
			batch := make([][]byte, len(perm))
			for i, j := range perm {
				batch[i] = codes[j]
			}
			got, err := det.ScoreBatch(ctx, batch)
			if err != nil {
				errCh <- err
				return
			}
			for i, j := range perm {
				if got[i] != baseline[j] {
					errCh <- errVerdictMismatch(j)
					return
				}
			}
			for k := 0; k < 32; k++ {
				j := rng.Intn(len(codes))
				v, err := det.Score(ctx, codes[j])
				if err != nil {
					errCh <- err
					return
				}
				if v != baseline[j] {
					errCh <- errVerdictMismatch(j)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	hits, misses := det.CacheStats()
	if hits == 0 {
		t.Fatalf("feature cache never hit (hits=%d misses=%d)", hits, misses)
	}
}

// TestDetectorScoreBatchMatchesScore: ScoreBatch sorts its misses into
// runs (prefix-sharing ones on GPT-2α), yet every verdict, cache count,
// score count and telemetry sum must come out as scoring each bytecode
// with Score in order on a separately loaded detector leaves them. Batches
// mix cache hits, misses and repeated bytecodes.
func TestDetectorScoreBatchMatchesScore(t *testing.T) {
	ds, _ := testCorpus(t)
	codes := make([][]byte, ds.Len())
	for i, s := range ds.Samples {
		codes[i] = s.Bytecode
	}
	cat := func(parts ...[][]byte) [][]byte {
		var out [][]byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	batches := [][][]byte{
		{codes[0]},
		{codes[100]},
		cat(codes[10:60], codes[30:40], codes[0:5], codes[45:46], codes[45:46]),
		cat(codes[40:120], codes[55:65]),
		codes,
	}
	for _, c := range []struct {
		model     string
		train     []DetectorOption
		telemetry bool
	}{
		{model: "GPT-2α", train: []DetectorOption{WithDetectorNeural(tinyNeural(1))}},
		// Hardened as `train -harden` trains it, served with telemetry.
		{model: "Random Forest", train: []DetectorOption{WithCanonicalFeatures(), WithAdversarialAugment(0.5)}, telemetry: true},
	} {
		t.Run(c.model, func(t *testing.T) {
			spec, err := ModelByName(c.model)
			if err != nil {
				t.Fatal(err)
			}
			trained, err := Train(spec, ds, c.train...)
			if err != nil {
				t.Fatal(err)
			}
			var blob bytes.Buffer
			if err := trained.Save(&blob); err != nil {
				t.Fatal(err)
			}
			load := func(opts ...DetectorOption) *Detector {
				if c.telemetry {
					opts = append(opts, WithEvasionTelemetry())
				}
				d, err := LoadDetector(bytes.NewReader(blob.Bytes()), opts...)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			// Three workers cut odd-sized runs. The default cache holds the
			// whole corpus: under eviction the order of a block's reads
			// and writes shifts which repeats hit.
			det := load(WithScoreWorkers(3))
			ref := load()
			ctx := context.Background()
			for _, code := range codes[:20] {
				if _, err := det.Score(ctx, code); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Score(ctx, code); err != nil {
					t.Fatal(err)
				}
			}
			for b, batch := range batches {
				got, err := det.ScoreBatch(ctx, batch)
				if err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				for i, code := range batch {
					want, err := ref.Score(ctx, code)
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != want {
						t.Fatalf("batch %d item %d: ScoreBatch %+v, Score %+v", b, i, got[i], want)
					}
				}
				gh, gm := det.CacheStats()
				wh, wm := ref.CacheStats()
				if gh != wh || gm != wm {
					t.Fatalf("batch %d: cache hits/misses %d/%d, Score in order gives %d/%d", b, gh, gm, wh, wm)
				}
				if g, w := det.ScoreCount(), ref.ScoreCount(); g != w {
					t.Fatalf("batch %d: ScoreCount %d, want %d", b, g, w)
				}
				if g, w := det.AdversaryStats(), ref.AdversaryStats(); g != w {
					t.Fatalf("batch %d: AdversaryStats %+v, want %+v", b, g, w)
				}
			}
			if c.telemetry && det.AdversaryStats().Scored == 0 {
				t.Fatal("telemetry never recorded")
			}

			before := det.ScoreCount()
			if vs, err := det.ScoreBatch(ctx, [][]byte{codes[70], nil, codes[71]}); err == nil || vs != nil {
				t.Fatalf("batch with an empty bytecode: %v, %v; want an error", vs, err)
			}
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if vs, err := det.ScoreBatch(cancelled, codes[70:80]); !errors.Is(err, context.Canceled) || vs != nil {
				t.Fatalf("cancelled batch: %v, %v; want context.Canceled", vs, err)
			}
			if got := det.ScoreCount(); got != before {
				t.Fatalf("refused batches scored %d bytecodes", got-before)
			}
		})
	}
}

type errVerdictMismatch int

func (e errVerdictMismatch) Error() string {
	return "concurrent verdict differs from sequential baseline"
}

func TestDetectorScoreErrors(t *testing.T) {
	ds, sim := testCorpus(t)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := det.Score(ctx, nil); err == nil {
		t.Fatal("empty bytecode should fail")
	}
	if _, err := det.ScoreHex(ctx, "0xzz"); err == nil {
		t.Fatal("bad hex should fail")
	}
	if _, err := det.ScoreAddress(ctx, ds.Samples[0].Address); err == nil {
		t.Fatal("ScoreAddress without WithRPC should fail")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := det.Score(cancelled, ds.Samples[0].Bytecode); err == nil {
		t.Fatal("cancelled context should fail")
	}

	withRPC, err := Train(spec, ds, WithRPC(sim.RPCURL()))
	if err != nil {
		t.Fatal(err)
	}
	v, err := withRPC.ScoreAddress(ctx, ds.Samples[0].Address)
	if err != nil {
		t.Fatal(err)
	}
	if v.ModelName != "Random Forest" || v.Confidence < 0.5 {
		t.Fatalf("implausible verdict %v", v)
	}
	// An address that was never deployed has no code.
	if _, err := withRPC.ScoreAddress(ctx, "0x00000000000000000000000000000000000000ff"); err == nil {
		t.Fatal("EOA address should fail with no deployed code")
	}
}

func TestLoadDetectorRejectsGarbage(t *testing.T) {
	if _, err := LoadDetector(bytes.NewReader([]byte("not a detector"))); err == nil {
		t.Fatal("garbage stream should fail")
	}
}

// TestLoadDetectorCorruptAndTruncated feeds LoadDetector every truncation
// prefix class and systematic byte corruption of a valid save: it must
// return an error, or, for corruption that misses the learned state, a
// detector that scores the whole corpus without a panic and within a
// deadline. A model store serves these bytes to production processes.
func TestLoadDetectorCorruptAndTruncated(t *testing.T) {
	ds, _ := testCorpus(t)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, ds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	load := func(t *testing.T, b []byte) (det *Detector, err error) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("LoadDetector panicked: %v", r)
			}
		}()
		return LoadDetector(bytes.NewReader(b))
	}
	// score runs det over the corpus on a goroutine of its own, so a tree
	// walk that never ends fails the test at the deadline instead of
	// hanging it.
	score := func(t *testing.T, det *Detector) error {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("panic: %v", r)
				}
			}()
			for _, s := range ds.Samples {
				if _, err := det.Score(context.Background(), s.Bytecode); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(20 * time.Second):
			return errors.New("scoring did not finish within 20 s")
		}
	}

	// Truncations at every region of the envelope: empty, header, half,
	// all-but-the-tail.
	for _, n := range []int{0, 1, 16, len(blob) / 4, len(blob) / 2, len(blob) - 1} {
		if _, err := load(t, blob[:n]); err == nil {
			t.Fatalf("truncated input (%d of %d bytes) must fail", n, len(blob))
		}
	}
	// Byte corruption across the blob. A flip can land in slack the decoder
	// never reads — a clean load is acceptable there — but a panic never is,
	// at load or at score time.
	for off := 0; off < len(blob); off += len(blob)/97 + 1 {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0xFF
		if loaded, err := load(t, mut); err == nil {
			if err := score(t, loaded); err != nil {
				t.Fatalf("flip at byte %d of %d loaded, then scoring failed: %v", off, len(blob), err)
			}
		}
	}
}

// TestScoreBatchCancelledMidBatch cancels a large batch once a few scores
// have landed: ScoreBatch must return the cancellation error promptly
// instead of finishing the batch or deadlocking.
func TestScoreBatchCancelledMidBatch(t *testing.T) {
	ds, _ := testCorpus(t)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	// No cache and one worker: every score does real work sequentially, so
	// the batch observably straddles the cancellation point.
	det, err := Train(spec, ds, WithFeatureCache(0), WithScoreWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	codes := make([][]byte, 50_000)
	for i := range codes {
		codes[i] = ds.Samples[i%ds.Len()].Bytecode
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for det.ScoreCount() < 5 {
		}
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := det.ScoreBatch(ctx, codes)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled batch returned no error")
		}
		if got := det.ScoreCount(); got == uint64(len(codes)) {
			t.Fatal("batch ran to completion despite cancellation")
		}
	case <-time.After(time.Minute):
		t.Fatal("ScoreBatch did not return after cancellation")
	}
}

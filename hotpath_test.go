package phishinghook

import (
	"context"
	"fmt"
	"testing"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/monitor"
)

// TestScoreCachedPathZeroAllocs pins the PR's headline contract: once a
// bytecode's features and score are resident in the sharded LRU, Score
// performs no heap allocation — digest key, cache probe and verdict
// construction are all allocation-free.
func TestScoreCachedPathZeroAllocs(t *testing.T) {
	ds, _ := testCorpus(t)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, ds, WithDetectorSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	code := ds.Samples[0].Bytecode
	if _, err := det.Score(ctx, code); err != nil { // warm the cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := det.Score(ctx, code); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached Score allocates %.1f objects/op, want 0", allocs)
	}
	hits, _ := det.CacheStats()
	if hits == 0 {
		t.Fatal("cache recorded no hits — the assertion measured the wrong path")
	}
}

// TestSwappableCachedPathZeroAllocs extends the zero-allocation contract to
// the lifecycle handle: routing a cached Score through the Swappable
// (pointer load, version stamp, per-version counters, score hook check,
// shadow enqueue probe) must not allocate either.
func TestSwappableCachedPathZeroAllocs(t *testing.T) {
	ds, _ := testCorpus(t)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, ds, WithDetectorSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSwappable("v0001", det)
	defer sw.Close()
	ctx := context.Background()
	code := ds.Samples[0].Bytecode
	if _, err := sw.Score(ctx, code); err != nil { // warm the cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := sw.Score(ctx, code); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached Score through the handle allocates %.1f objects/op, want 0", allocs)
	}
}

// fixedFetcher is an in-process CodeFetcher answering every address with
// the same preallocated bytecode set — it isolates the pipeline's own
// allocation behavior from HTTP.
type fixedFetcher struct{ codes [][]byte }

func (f *fixedFetcher) GetCodeBatch(ctx context.Context, addrs []chain.Address) ([][]byte, error) {
	return f.codes[:len(addrs)], nil
}

// TestPipelineSteadyStateZeroAllocs pins the ingestion-side allocation
// contract: once a bytecode is in the dedup set, pushing a full scan batch
// through the pipeline — address parsing, chunk assembly over the pooled
// batch buffers, fetch dispatch, SHA-256 dedup — performs no heap
// allocation. This is the fetch pool's steady state at backfill volume
// (clones and rescans vastly outnumber unseen bytecodes), where re-slicing
// address batches per poll used to cost two slice headers plus backing
// arrays per chunk.
func TestPipelineSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates on channel handoffs; the allocation contract is asserted in the regular test run")
	}
	ds, _ := testCorpus(t)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, ds, WithDetectorSeed(3))
	if err != nil {
		t.Fatal(err)
	}

	const batch = 64
	code := ds.Samples[0].Bytecode
	fetch := &fixedFetcher{codes: make([][]byte, 2*batch)}
	for i := range fetch.codes {
		fetch.codes[i] = code
	}
	addrs := make([]string, 2*batch) // two full chunks per scan
	for i := range addrs {
		addrs[i] = fmt.Sprintf("0x%040x", i+1)
	}

	p, err := monitor.NewPipeline(det, fetch, monitor.PipelineConfig{FetchBatch: batch})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)
	defer p.Stop()

	// Warm: the one unique bytecode gets scored, every later scan is pure
	// dedup — the steady state under measurement.
	if err := p.Scan(ctx, addrs, 1); err != nil {
		t.Fatal(err)
	}
	if p.SeenUnique() != 1 {
		t.Fatalf("SeenUnique = %d, want 1", p.SeenUnique())
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := p.Scan(ctx, addrs, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Scan allocates %.1f objects/op, want 0 (chunk buffers must come from the pool)", allocs)
	}
	s := p.Stats()
	if s.DedupHits == 0 {
		t.Fatal("no dedup hits recorded — the assertion measured the wrong path")
	}
	if s.Errors != 0 {
		t.Fatalf("pipeline recorded %d errors", s.Errors)
	}
}

// BenchmarkDetectorScoreUncached measures the full featurize→infer pipeline
// with the cache disabled: the Watchtower-shaped workload, where SHA dedup
// upstream means nearly every scored contract is new.
func BenchmarkDetectorScoreUncached(b *testing.B) {
	_, s := sharedDetector(b)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		b.Fatal(err)
	}
	det, err := Train(spec, s.ds, WithDetectorSeed(1), WithFeatureCache(0))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var total int
	for _, smp := range s.ds.Samples {
		total += len(smp.Bytecode)
	}
	b.SetBytes(int64(total) / int64(s.ds.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Score(ctx, s.ds.Samples[i%s.ds.Len()].Bytecode); err != nil {
			b.Fatal(err)
		}
	}
}

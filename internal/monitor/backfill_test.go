package monitor

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/explorer"
	"github.com/phishinghook/phishinghook/internal/synth"
)

// backfillHarness builds a frozen chain (full history visible — the
// backfill workload) served over several JSON-RPC endpoints plus the
// explorer registry.
func backfillHarness(t *testing.T, seed int64, endpoints int) (*chain.Chain, *fakeScorer, BackfillConfig) {
	t.Helper()
	c, err := chain.Build(chain.BuildConfig{
		Generator:      synth.NewGenerator(synth.DefaultConfig(seed)),
		Timeline:       synth.ScaledTimeline(120, 60),
		BenignPerMonth: chain.UniformBenign(60),
		ProxyFraction:  0.15,
	})
	if err != nil {
		t.Fatalf("build chain: %v", err)
	}
	scorer := newFakeScorer(c)
	var urls []string
	for i := 0; i < endpoints; i++ {
		srv := httptest.NewServer(ethrpc.NewServer(c, 1))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	explSrv := httptest.NewServer(explorer.NewService(c, explorer.ServiceConfig{}).Handler())
	t.Cleanup(explSrv.Close)
	return c, scorer, BackfillConfig{
		RPCURLs:      urls,
		ExplorerURL:  explSrv.URL,
		From:         chain.MonthStartBlock(0),
		To:           c.TailBlock(),
		Shards:       3,
		WindowBlocks: chain.BlocksPerMonth / 2,
	}
}

func TestBackfillRejectsEmptyRange(t *testing.T) {
	_, scorer, cfg := backfillHarness(t, 90, 1)
	for _, r := range [][2]uint64{{0, 0}, {10, 5}, {5, 0}} {
		bad := cfg
		bad.From, bad.To = r[0], r[1]
		if _, err := NewBackfill(scorer, bad); err == nil {
			t.Errorf("range [%d, %d] accepted, want error", r[0], r[1])
		}
	}
}

func TestPartitionRangeCoversExactly(t *testing.T) {
	for _, tc := range []struct {
		from, to uint64
		n        int
	}{{1, 10, 3}, {100, 100, 1}, {5, 1000003, 7}, {1, 4, 4}} {
		shards := partitionRange(tc.from, tc.to, tc.n)
		if len(shards) != tc.n {
			t.Fatalf("partition(%d,%d,%d): %d shards", tc.from, tc.to, tc.n, len(shards))
		}
		next := tc.from
		for i, s := range shards {
			if s.from != next {
				t.Fatalf("shard %d starts at %d, want %d (gap or overlap)", i, s.from, next)
			}
			if s.cursor != s.from-1 {
				t.Fatalf("shard %d cursor %d, want %d", i, s.cursor, s.from-1)
			}
			if s.to < s.from {
				t.Fatalf("shard %d inverted [%d, %d]", i, s.from, s.to)
			}
			next = s.to + 1
		}
		if next != tc.to+1 {
			t.Fatalf("partition ends at %d, want %d", next-1, tc.to)
		}
	}
}

// TestBackfillScansRangeExactlyOnce drives a sharded multi-endpoint
// backfill over a frozen chain's full history: every unique bytecode in the
// range is scored exactly once, clones collapse into dedup hits, planted
// phishing alerts, and the fetch load actually spread across endpoints.
func TestBackfillScansRangeExactlyOnce(t *testing.T) {
	c, scorer, cfg := backfillHarness(t, 91, 3)
	var alerts atomic.Uint64
	cfg.Sinks = []Sink{FuncSink(func(Alert) error { alerts.Add(1); return nil })}
	b, err := NewBackfill(scorer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := b.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := b.Stats()
	wantUnique, wantPhish := windowUniques(c, cfg.From-1, cfg.To)
	if int(s.ContractsScored) != wantUnique {
		t.Errorf("scored %d unique bytecodes, range holds %d", s.ContractsScored, wantUnique)
	}
	if scorer.maxCount() != 1 {
		t.Errorf("a bytecode was scored %d times, want exactly once", scorer.maxCount())
	}
	if got := len(c.ContractsInRange(cfg.From, cfg.To)); int(s.ContractsSeen) != got {
		t.Errorf("ContractsSeen = %d, want %d", s.ContractsSeen, got)
	}
	if s.DedupHits != s.ContractsSeen-s.ContractsScored {
		t.Errorf("DedupHits = %d, want seen-scored = %d", s.DedupHits, s.ContractsSeen-s.ContractsScored)
	}
	if int(alerts.Load()) != wantPhish {
		t.Errorf("%d alerts, want %d unique phishing bytecodes", alerts.Load(), wantPhish)
	}
	if s.Cursor != cfg.To {
		t.Errorf("Cursor = %d, want %d", s.Cursor, cfg.To)
	}
	if len(s.Shards) != cfg.Shards {
		t.Fatalf("%d shard stats, want %d", len(s.Shards), cfg.Shards)
	}
	for i, sh := range s.Shards {
		if !sh.Done || sh.Cursor != sh.To {
			t.Errorf("shard %d not finished: %+v", i, sh)
		}
	}
	if len(s.Endpoints) != 3 {
		t.Fatalf("%d endpoint stats, want 3", len(s.Endpoints))
	}
	used := 0
	for _, ep := range s.Endpoints {
		if ep.Successes > 0 {
			used++
		}
	}
	if used < 2 {
		t.Errorf("fetches used %d endpoints, want load spread over >= 2", used)
	}
	if s.Errors != 0 {
		t.Errorf("backfill recorded %d errors", s.Errors)
	}
}

// gatedScorer delays every score slightly and trips a signal after N
// successful scores — the "pull the plug mid-shard" trigger.
type gatedScorer struct {
	*fakeScorer
	after  int64
	scored atomic.Int64
	signal chan struct{}
	once   atomic.Bool
}

func (g *gatedScorer) ScoreCode(ctx context.Context, code []byte) (Verdict, error) {
	v, err := g.fakeScorer.ScoreCode(ctx, code)
	if err == nil && g.scored.Add(1) >= g.after && g.once.CompareAndSwap(false, true) {
		close(g.signal)
	}
	return v, err
}

// TestBackfillKillAndResume hard-stops a backfill mid-shard (context
// cancellation while every shard still has work), then restarts it from the
// checkpoint: the resumed run must finish the range with every unique
// bytecode scored exactly once across both phases — the dedup set carries
// exactly-once over the kill.
func TestBackfillKillAndResume(t *testing.T) {
	c, scorer, cfg := backfillHarness(t, 92, 2)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "backfill.json")
	cfg.CheckpointEvery = time.Millisecond // checkpoint aggressively mid-run
	cfg.WindowBlocks = chain.BlocksPerMonth / 4
	wantUnique, _ := windowUniques(c, cfg.From-1, cfg.To)
	if wantUnique < 20 {
		t.Fatalf("corpus too small (%d uniques) to kill mid-run meaningfully", wantUnique)
	}

	// Phase 1: kill after ~a third of the uniques have been scored.
	gated := &gatedScorer{fakeScorer: scorer, after: int64(wantUnique / 3), signal: make(chan struct{})}
	b1, err := NewBackfill(gated, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, kill := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b1.Run(ctx1) }()
	select {
	case <-gated.signal:
	case <-time.After(60 * time.Second):
		t.Fatal("backfill never reached the kill point")
	}
	kill()
	if err := <-done; err == nil {
		t.Fatal("killed run returned nil, want context error")
	}
	s1 := b1.Stats()
	if s1.ContractsScored == 0 {
		t.Fatal("phase 1 scored nothing before the kill")
	}
	if int(s1.ContractsScored) >= wantUnique {
		t.Fatalf("phase 1 scored the whole range (%d); the kill landed too late to test resume", s1.ContractsScored)
	}

	// Phase 2: a fresh backfill resumes from the checkpoint and must finish.
	b2, err := NewBackfill(gated, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b2.SeenUnique() == 0 {
		t.Fatal("restart did not restore the dedup set")
	}
	resumed := b2.Stats()
	progressed := false
	for _, sh := range resumed.Shards {
		if sh.Cursor > sh.From-1 {
			progressed = true
		}
	}
	if !progressed {
		t.Fatal("restart did not restore any shard cursor")
	}
	ctx2, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := b2.Run(ctx2); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}

	// Exactly-once across the kill: no bytecode scored twice, full coverage.
	if got := gated.maxCount(); got != 1 {
		t.Errorf("a bytecode was scored %d times across the kill, want exactly once", got)
	}
	total := int(s1.ContractsScored + b2.Stats().ContractsScored)
	if total != wantUnique {
		t.Errorf("scored %d unique bytecodes across both phases, range holds %d", total, wantUnique)
	}
	for i, sh := range b2.Stats().Shards {
		if !sh.Done {
			t.Errorf("shard %d unfinished after resume: %+v", i, sh)
		}
	}
}

// TestBackfillCheckpointCompatibility pins the format contract both ways: a
// plain watcher checkpoint feeds its dedup set into a backfill, and a
// backfill checkpoint for a different range, or whose shard marks leave a
// gap or overlap, is refused instead of silently rescanned.
func TestBackfillCheckpointCompatibility(t *testing.T) {
	_, scorer, cfg := backfillHarness(t, 93, 1)
	dir := t.TempDir()

	// A watcher-format checkpoint (no shards) must load: dedup set adopted,
	// shard cursors fresh.
	watcherCkpt := filepath.Join(dir, "watcher.json")
	h := sha256.Sum256([]byte{0x60, 0x80})
	cp := checkpoint{Cursor: 123, ModelVersion: "v0042", Seen: []string{hexHash(h)}}
	if err := saveCheckpoint(watcherCkpt, cp); err != nil {
		t.Fatal(err)
	}
	cfgW := cfg
	cfgW.CheckpointPath = watcherCkpt
	b, err := NewBackfill(scorer, cfgW)
	if err != nil {
		t.Fatalf("watcher checkpoint refused: %v", err)
	}
	if b.SeenUnique() != 1 {
		t.Errorf("dedup set has %d entries, want 1 from the watcher checkpoint", b.SeenUnique())
	}
	if b.ModelVersion() != "v0042" {
		t.Errorf("ModelVersion = %q, want v0042", b.ModelVersion())
	}
	if b.Cursor() != cfg.From-1 {
		t.Errorf("shard cursors should start fresh, Cursor = %d", b.Cursor())
	}

	// A backfill checkpoint for a different range must be refused.
	otherCkpt := filepath.Join(dir, "other.json")
	cp = checkpoint{Cursor: 5, Shards: []shardMark{{From: 5, To: 10, Cursor: 5}}}
	if err := saveCheckpoint(otherCkpt, cp); err != nil {
		t.Fatal(err)
	}
	cfgO := cfg
	cfgO.CheckpointPath = otherCkpt
	if _, err := NewBackfill(scorer, cfgO); err == nil {
		t.Fatal("checkpoint for a different range accepted")
	}

	// Marks with the right ends must still tile the range: resuming past a
	// gap would end at Cursor() == To with the gap never scanned.
	mid := (cfg.From + cfg.To) / 2
	for _, tc := range []struct {
		name  string
		marks []shardMark
	}{
		{"gap", []shardMark{{From: cfg.From, To: cfg.From + 10, Cursor: cfg.From + 10}, {From: mid, To: cfg.To, Cursor: mid - 1}}},
		{"overlap", []shardMark{{From: cfg.From, To: mid, Cursor: cfg.From - 1}, {From: mid - 10, To: cfg.To, Cursor: mid - 11}}},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if err := saveCheckpoint(path, checkpoint{Cursor: cfg.From - 1, Shards: tc.marks}); err != nil {
			t.Fatal(err)
		}
		bad := cfg
		bad.CheckpointPath = path
		if _, err := NewBackfill(scorer, bad); err == nil {
			t.Errorf("checkpoint whose shard marks %s accepted", tc.name)
		}
	}
}

func hexHash(h [32]byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 64)
	for i, b := range h {
		out[2*i] = digits[b>>4]
		out[2*i+1] = digits[b&0xf]
	}
	return string(out)
}

// FuzzBackfillResume writes arbitrary bytes to a backfill's checkpoint path.
// NewBackfill must refuse them or resume shards that tile [From, To] in
// order, each cursor within its own shard's [from-1, to]; it must never
// panic. Seeds: a valid 3-shard file, the same without the CRC trailer
// (the legacy format), a gap, an overlap and a cursor past To.
func FuzzBackfillResume(f *testing.F) {
	const from, to = 1000, 1999
	valid := []shardMark{{From: 1000, To: 1333, Cursor: 1100}, {From: 1334, To: 1666, Cursor: 1333}, {From: 1667, To: 1999, Cursor: 1999}}
	for _, marks := range [][]shardMark{
		valid,
		{{From: 1000, To: 1010, Cursor: 1010}, {From: 1500, To: 1999, Cursor: 1499}},
		{{From: 1000, To: 1500, Cursor: 999}, {From: 1490, To: 1999, Cursor: 1489}},
		{{From: 1000, To: 1999, Cursor: 2500}},
	} {
		blob, err := encodeCheckpoint(checkpoint{Cursor: marks[0].Cursor, Seen: []string{hexHash([32]byte{1})}, Shards: marks})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	legacy, err := json.Marshal(checkpoint{Version: checkpointVersion, Cursor: 1100, Shards: valid})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(legacy, '\n'))

	f.Fuzz(func(t *testing.T, blob []byte) {
		path := filepath.Join(t.TempDir(), "backfill.json")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := NewBackfill(&fakeScorer{}, BackfillConfig{
			RPCURLs:        []string{"http://127.0.0.1:1"},
			ExplorerURL:    "http://127.0.0.1:1",
			From:           from,
			To:             to,
			Shards:         3,
			CheckpointPath: path,
		})
		if err != nil {
			return
		}
		next := uint64(from)
		for i, s := range b.shards {
			if s.from != next || s.to < s.from || s.cursor < s.from-1 || s.cursor > s.to {
				t.Fatalf("resumed shard %d is [%d, %d] with cursor %d; the range continues at block %d", i, s.from, s.to, s.cursor, next)
			}
			next = s.to + 1
		}
		if next != to+1 {
			t.Fatalf("resumed shards end at block %d, want %d", next-1, to)
		}
	})
}

package monitor

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// FuzzCheckpointLoad writes arbitrary bytes to a checkpoint and to its .good
// copy (an empty input leaves that file absent), then resumes them as
// contract, backfill and tx progress. Each load must refuse or resume and
// never panic; no file resumes as both a contract and a tx checkpoint; and a
// resumed state that is saved and loaded again must come back with the same
// cursor, shard marks, judged set and model version. Seeds: a valid file of
// each modality, a legacy file without the CRC trailer, and a torn file.
func FuzzCheckpointLoad(f *testing.F) {
	seen := []string{hexHash([32]byte{1}), hexHash([32]byte{2})}
	var valid [][]byte
	for _, cp := range []checkpoint{
		{Cursor: 1500, ModelVersion: "v7", Seen: seen},
		{Cursor: 1100, Seen: seen, Shards: []shardMark{{From: 1000, To: 1333, Cursor: 1100}, {From: 1334, To: 1666, Cursor: 1333}, {From: 1667, To: 1999, Cursor: 1999}}},
		{Cursor: 7, ModelVersion: "v-tx", Modality: "tx", Seen: seen},
	} {
		blob, err := encodeCheckpoint(cp)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, blob)
		f.Add(blob, []byte(nil))
	}
	f.Add([]byte(`{"version":1,"cursor":77,"seen":["`+seen[0]+`"]}`), []byte(nil))
	f.Add(valid[0][:len(valid[0])/2], valid[1])

	f.Fuzz(func(t *testing.T, primary, good []byte) {
		place := func(name string) string {
			path := filepath.Join(t.TempDir(), name)
			for _, file := range []struct {
				path string
				blob []byte
			}{{path, primary}, {path + lastGoodSuffix, good}} {
				if len(file.blob) == 0 {
					continue
				}
				if err := os.WriteFile(file.path, file.blob, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			return path
		}
		cfg := Config{RPCURL: "http://127.0.0.1:1", ExplorerURL: "http://127.0.0.1:1"}
		bcfg := BackfillConfig{RPCURLs: []string{cfg.RPCURL}, ExplorerURL: cfg.ExplorerURL, From: 1000, To: 1999, Shards: 3}

		// Contract watcher.
		cfg.CheckpointPath = place("watch.cursor")
		_, contractResumed, _ := NewProgress(cfg.CheckpointPath, 0, "").Resume()
		if w, err := New(&fakeScorer{}, cfg); err == nil {
			if err := w.pipe.progress.Flush(w.mark); err != nil {
				t.Fatal(err)
			}
			again, err := New(&fakeScorer{}, cfg)
			if err != nil {
				t.Fatalf("contract checkpoint saved from a resumed state refused: %v", err)
			}
			if again.Cursor() != w.Cursor() {
				t.Fatalf("contract cursor %d came back as %d", w.Cursor(), again.Cursor())
			}
			sameJudgment(t, w.pipe.progress, again.pipe.progress)
		}

		// Backfill.
		bcfg.CheckpointPath = place("backfill.cursor")
		if b, err := NewBackfill(&fakeScorer{}, bcfg); err == nil {
			if err := b.pipe.progress.Flush(b.mark); err != nil {
				t.Fatal(err)
			}
			again, err := NewBackfill(&fakeScorer{}, bcfg)
			if err != nil {
				t.Fatalf("backfill checkpoint saved from a resumed state refused: %v", err)
			}
			if !reflect.DeepEqual(again.shards, b.shards) {
				t.Fatalf("shard marks %+v came back as %+v", b.shards, again.shards)
			}
			sameJudgment(t, b.pipe.progress, again.pipe.progress)
		}

		// Tx watcher.
		path := place("tx.cursor")
		p := NewProgress(path, time.Second, "tx")
		m, ok, err := p.Resume()
		if err != nil || !ok {
			return
		}
		if contractResumed {
			t.Fatal("one file resumed as both a contract and a tx checkpoint")
		}
		if err := p.Flush(func() Mark { return Mark{Cursor: m.Cursor} }); err != nil {
			t.Fatal(err)
		}
		q := NewProgress(path, time.Second, "tx")
		m2, ok, err := q.Resume()
		if err != nil || !ok {
			t.Fatalf("tx checkpoint saved from a resumed state: ok=%v err=%v", ok, err)
		}
		if m2.Cursor != m.Cursor {
			t.Fatalf("tx cursor %d came back as %d", m.Cursor, m2.Cursor)
		}
		sameJudgment(t, p, q)
	})
}

// sameJudgment fails unless two progresses hold the same judged set and
// model version.
func sameJudgment(t *testing.T, want, got *Progress) {
	t.Helper()
	if !maps.Equal(want.seen, got.seen) || want.judged != got.judged {
		t.Fatalf("judged set of %d hashes came back as %d", want.judged, got.judged)
	}
	if want.version != got.version {
		t.Fatalf("model version %q came back as %q", want.version, got.version)
	}
}

// BenchmarkProgressCheckpoint times one tx-modality save (encode, rotation,
// temp file, fsync, rename, directory fsync) and one load (read, CRC, parse,
// install) through Progress at 1e3, 1e4 and 1e5 judged hashes. ns/op is the
// mean; p50-ms is the per-operation median and file-MB the checkpoint size.
func BenchmarkProgressCheckpoint(b *testing.B) {
	for _, n := range []int{1e3, 1e4, 1e5} {
		path := filepath.Join(b.TempDir(), "tx.cursor")
		p := NewProgress(path, 0, "tx")
		for i := 0; i < n; i++ {
			var seed [8]byte
			binary.LittleEndian.PutUint64(seed[:], uint64(i))
			p.Judge(sha256.Sum256(seed[:]), "v1")
		}
		mark := func() Mark { return Mark{Cursor: uint64(n)} }
		if err := p.Flush(mark); err != nil {
			b.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("save/%d", n), func(b *testing.B) {
			per := make([]time.Duration, 0, b.N)
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := p.Flush(mark); err != nil {
					b.Fatal(err)
				}
				per = append(per, time.Since(t0))
			}
			reportMedian(b, per, info.Size())
		})
		b.Run(fmt.Sprintf("load/%d", n), func(b *testing.B) {
			per := make([]time.Duration, 0, b.N)
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				q := NewProgress(path, 0, "tx")
				if _, ok, err := q.Resume(); err != nil || !ok || q.SeenUnique() != n {
					b.Fatalf("load: ok=%v err=%v judged=%d", ok, err, q.SeenUnique())
				}
				per = append(per, time.Since(t0))
			}
			reportMedian(b, per, info.Size())
		})
	}
}

func reportMedian(b *testing.B, per []time.Duration, size int64) {
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	b.ReportMetric(float64(per[len(per)/2])/float64(time.Millisecond), "p50-ms")
	b.ReportMetric(float64(size)/1e6, "file-MB")
}

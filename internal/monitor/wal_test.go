package monitor

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// flakySink fails while down, recording what it accepted.
type flakySink struct {
	down   bool
	alerts []Alert
}

var errSinkDown = errors.New("sink down")

func (f *flakySink) Emit(a Alert) error {
	if f.down {
		return errSinkDown
	}
	f.alerts = append(f.alerts, a)
	return nil
}

func TestWALSpillAndReplay(t *testing.T) {
	dir := t.TempDir()
	inner := &flakySink{down: true}
	w, err := OpenWALSink(filepath.Join(dir, "alerts.wal"), inner)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	for _, h := range []string{"0xa", "0xb", "0xc"} {
		if err := w.Emit(Alert{TxHash: h, Modality: "tx"}); err != nil {
			t.Fatalf("spilled Emit surfaced the sink error: %v", err)
		}
	}
	if s := w.Stats(); s.Spilled != 3 || s.Pending != 3 || len(inner.alerts) != 0 {
		t.Fatalf("after outage: stats %+v, delivered %d", s, len(inner.alerts))
	}

	inner.down = false
	delivered, remaining, err := w.Replay()
	if err != nil || delivered != 3 || remaining != 0 {
		t.Fatalf("Replay = %d delivered, %d remaining, %v", delivered, remaining, err)
	}
	if len(inner.alerts) != 3 || inner.alerts[0].TxHash != "0xa" {
		t.Fatalf("replay order/content wrong: %v", inner.alerts)
	}
}

func TestWALHealthyEmitDrainsBacklog(t *testing.T) {
	dir := t.TempDir()
	inner := &flakySink{down: true}
	w, err := OpenWALSink(filepath.Join(dir, "alerts.wal"), inner)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Emit(Alert{TxHash: "0xa"})
	inner.down = false
	// The next healthy Emit proves the sink back and drains the backlog.
	w.Emit(Alert{TxHash: "0xb"})
	if len(inner.alerts) != 2 {
		t.Fatalf("healthy Emit did not drain the backlog: %v", inner.alerts)
	}
	if s := w.Stats(); s.Pending != 0 || s.Replayed != 1 {
		t.Fatalf("stats after drain: %+v", s)
	}
}

func TestWALSentLedgerAbsorbsDuplicates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "alerts.wal")
	inner := &flakySink{}
	w, err := OpenWALSink(path, inner)
	if err != nil {
		t.Fatal(err)
	}

	if err := w.Emit(Alert{TxHash: "0xa", Modality: "tx"}); err != nil {
		t.Fatal(err)
	}
	// The upstream dedup set rolled back (torn checkpoint): the same tx is
	// re-scored and re-emitted. The ledger must absorb it.
	if err := w.Emit(Alert{TxHash: "0xa", Modality: "tx"}); err != nil {
		t.Fatal(err)
	}
	if len(inner.alerts) != 1 {
		t.Fatalf("duplicate identity delivered twice: %v", inner.alerts)
	}
	if s := w.Stats(); s.Deduped != 1 {
		t.Fatalf("Deduped = %d, want 1", s.Deduped)
	}
	// Contract alerts dedup on bytecode hash, the watcher's own key.
	w.Emit(Alert{CodeHash: "c1", Address: "0x1"})
	w.Emit(Alert{CodeHash: "c1", Address: "0x2"})
	if len(inner.alerts) != 2 {
		t.Fatalf("clone re-alert delivered: %v", inner.alerts)
	}
	w.Close()

	// The ledger survives a restart: a reopened WAL still refuses the ids.
	inner2 := &flakySink{}
	w2, err := OpenWALSink(path, inner2)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	w2.Emit(Alert{TxHash: "0xa", Modality: "tx"})
	w2.Emit(Alert{CodeHash: "c1", Address: "0x3"})
	if len(inner2.alerts) != 0 {
		t.Fatalf("reopened ledger re-delivered: %v", inner2.alerts)
	}
	if s := w2.Stats(); s.Deduped != 2 {
		t.Fatalf("reopened Deduped = %d, want 2", s.Deduped)
	}
}

func TestWALReplaySkipsSentEntries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "alerts.wal")
	inner := &flakySink{down: true}
	w, err := OpenWALSink(path, inner)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Spill during the outage, then the same identity is delivered directly
	// (sink healed mid-batch) before the journal replays.
	w.Emit(Alert{TxHash: "0xa"})
	inner.down = false
	w.markSent("tx:0xa")
	delivered, remaining, err := w.Replay()
	if err != nil || remaining != 0 {
		t.Fatalf("Replay: %d remaining, %v", remaining, err)
	}
	if delivered != 0 || len(inner.alerts) != 0 {
		t.Fatalf("replay re-delivered a sent entry: delivered=%d inner=%v", delivered, inner.alerts)
	}
	if s := w.Stats(); s.Deduped != 1 || s.Pending != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestWALSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "alerts.wal")
	inner := &flakySink{down: true}
	w, err := OpenWALSink(path, inner)
	if err != nil {
		t.Fatal(err)
	}
	w.Emit(Alert{TxHash: "0xa"})
	w.Emit(Alert{TxHash: "0xb"})
	w.Close() // process dies with the sink still down

	inner2 := &flakySink{}
	w2, err := OpenWALSink(path, inner2)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if s := w2.Stats(); s.Pending != 2 {
		t.Fatalf("reopened pending = %d, want 2", s.Pending)
	}
	delivered, remaining, err := w2.Replay()
	if err != nil || delivered != 2 || remaining != 0 {
		t.Fatalf("restart Replay = %d/%d, %v", delivered, remaining, err)
	}
	if _, err := os.Stat(path + ".sent"); err != nil {
		t.Fatalf("sent ledger missing after replay: %v", err)
	}
}

// TestWALReplayPreservesLongLine replays a journal whose undecodable middle
// line is 2 MiB long, past any line-scanner buffer: both alerts around it
// are delivered, and the long line stays in the journal byte for byte.
func TestWALReplayPreservesLongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.wal")
	long := bytes.Repeat([]byte("x"), 2<<20)
	first, err := json.Marshal(Alert{TxHash: "0xa"})
	if err != nil {
		t.Fatal(err)
	}
	last, err := json.Marshal(Alert{TxHash: "0xc"})
	if err != nil {
		t.Fatal(err)
	}
	journal := bytes.Join([][]byte{first, long, last, nil}, []byte("\n"))
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	inner := &flakySink{}
	w, err := OpenWALSink(path, inner)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	delivered, remaining, err := w.Replay()
	if err != nil || delivered != 2 || remaining != 1 {
		t.Fatalf("Replay = %d delivered, %d remaining, %v; want 2, 1, nil", delivered, remaining, err)
	}
	if len(inner.alerts) != 2 || inner.alerts[0].TxHash != "0xa" || inner.alerts[1].TxHash != "0xc" {
		t.Fatalf("delivered %v, want 0xa then 0xc", inner.alerts)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(long, '\n')) {
		t.Fatalf("journal after replay holds %d bytes, want the %d-byte undecodable line alone", len(got), len(long)+1)
	}
}

// FuzzWALReplay replays arbitrary journal bytes, with arbitrary bytes as the
// .sent ledger, into a healthy sink, then reopens the WAL and replays again.
// It must never panic; no alert with an identity is delivered twice across
// the two replays, or at all when the ledger already held its identity; and
// after the first replay the journal holds exactly the non-blank lines that
// do not decode, in order.
func FuzzWALReplay(f *testing.F) {
	line := func(a Alert) []byte {
		b, err := json.Marshal(a)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(bytes.Join([][]byte{
		line(Alert{TxHash: "0xa", Modality: "tx"}),
		line(Alert{CodeHash: "c1", Address: "0x1"}),
		line(Alert{TxHash: "0xa", Modality: "tx"}),
		[]byte("not json"),
		line(Alert{Address: "0x2"}),
		nil,
	}, []byte("\n")), []byte("code:c1\n"))
	f.Add([]byte("\r\n  \nnull\n{\"tx_hash\":\"0xb\"}\r\n{\"tx_hash\":"), []byte("tx:0xb"))
	f.Add([]byte("{}\n[1]\n\"s\"\n"), []byte("\n\naddr:\n"))

	f.Fuzz(func(t *testing.T, journal, ledger []byte) {
		path := filepath.Join(t.TempDir(), "alerts.wal")
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".sent", ledger, 0o644); err != nil {
			t.Fatal(err)
		}
		inLedger := map[string]bool{}
		for _, l := range bytes.Split(ledger, []byte("\n")) {
			inLedger[string(bytes.TrimSpace(l))] = true
		}
		var undecodable []string
		for _, l := range bytes.Split(journal, []byte("\n")) {
			l = bytes.TrimSpace(l)
			if len(l) > 0 && json.Unmarshal(l, new(Alert)) != nil {
				undecodable = append(undecodable, string(l))
			}
		}

		delivered := map[string]int{}
		for pass := 1; pass <= 2; pass++ {
			inner := &flakySink{}
			w, err := OpenWALSink(path, inner)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := w.Replay(); err != nil {
				t.Fatalf("pass %d: Replay: %v", pass, err)
			}
			w.Close()
			for _, a := range inner.alerts {
				key := alertKey(a)
				if key == "" {
					continue
				}
				if inLedger[key] {
					t.Fatalf("pass %d delivered %q, already in the sent ledger", pass, key)
				}
				if delivered[key]++; delivered[key] > 1 {
					t.Fatalf("pass %d delivered %q a second time", pass, key)
				}
			}
			if pass > 1 {
				continue
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var kept []string
			for _, l := range bytes.Split(blob, []byte("\n")) {
				if l = bytes.TrimSpace(l); len(l) > 0 {
					kept = append(kept, string(l))
				}
			}
			if !slices.Equal(kept, undecodable) {
				t.Fatalf("journal after replay holds %q, want the undecodable lines %q", kept, undecodable)
			}
		}
	})
}

package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"github.com/phishinghook/phishinghook/internal/lifecycle"
)

// WALSink wraps an inner sink with a write-ahead alert journal: an alert the
// inner sink refuses (sink outage, full channel, dead connection) is
// appended — fsynced — to a journal file instead of being dropped, and
// replays into the inner sink once it recovers. Replay is both opportunistic
// (the next successful Emit proves the sink healthy and drains the backlog)
// and explicit (Replay, for process restart recovery: the journal file
// outlives the process).
//
// The journal preserves the pipeline's exactly-once story from both sides.
// Against loss: an alert is journaled only when the inner sink reported it
// NOT delivered, and a replayed entry is removed only after the inner sink
// accepts it. Against duplication: every delivered alert's identity (tx hash
// for tx alerts, bytecode hash for contract alerts — the same keys the
// watchers dedup on) is appended to a sent ledger beside the journal, and an
// Emit or Replay of an already-delivered identity is absorbed instead of
// re-delivered. The ledger is what holds the zero-duplicate line when the
// upstream dedup set rolls back — a hard kill whose judged-set checkpoint
// was torn resumes from an older cursor and re-scores recent work, and
// without the ledger it would re-alert it.
//
// Two concurrent Emits of the same identity can still race past the ledger
// check (delivery happens outside the lock so a hung sink cannot block the
// journal); the watchers never score one identity concurrently, so the race
// requires a misbehaving caller.
type WALSink struct {
	inner Sink
	path  string

	mu      sync.Mutex // guards the journal file and the sent ledger
	f       *os.File
	sentF   *os.File
	sent    map[string]struct{}
	pending int64 // journaled, not yet replayed (mirrored atomically below)

	pendingN atomic.Int64
	spilled  atomic.Uint64
	replayed atomic.Uint64
	deduped  atomic.Uint64
}

// WALStats is a journal health snapshot.
type WALStats struct {
	Pending  int64  `json:"pending"`
	Spilled  uint64 `json:"spilled"`
	Replayed uint64 `json:"replayed"`
	// Deduped counts alerts absorbed because their identity was already in
	// the sent ledger — each one a duplicate the journal refused to emit.
	Deduped uint64 `json:"deduped"`
}

// OpenWALSink opens (creating if needed) the journal at path around inner.
// Entries left by a previous process are counted as pending and replay on
// the first healthy Emit or an explicit Replay call; the sent ledger at
// path+".sent" is reloaded so identities delivered before the restart stay
// delivered.
func OpenWALSink(path string, inner Sink) (*WALSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("monitor: open alert journal: %w", err)
	}
	sentF, err := os.OpenFile(path+".sent", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("monitor: open alert sent ledger: %w", err)
	}
	w := &WALSink{inner: inner, path: path, f: f, sentF: sentF, sent: make(map[string]struct{})}
	if blob, err := os.ReadFile(path); err == nil {
		for _, line := range bytes.Split(blob, []byte("\n")) {
			if len(bytes.TrimSpace(line)) > 0 {
				w.pending++
			}
		}
		if err := endTornLine(f, blob); err != nil {
			w.Close()
			return nil, fmt.Errorf("monitor: end torn alert journal line: %w", err)
		}
	}
	if blob, err := os.ReadFile(path + ".sent"); err == nil {
		for _, line := range bytes.Split(blob, []byte("\n")) {
			if key := string(bytes.TrimSpace(line)); key != "" {
				w.sent[key] = struct{}{}
			}
		}
		if err := endTornLine(sentF, blob); err != nil {
			w.Close()
			return nil, fmt.Errorf("monitor: end torn alert sent ledger line: %w", err)
		}
	}
	w.pendingN.Store(w.pending)
	return w, nil
}

// endTornLine ends with a newline a file whose last append a kill tore, so
// the next append starts a line of its own. Merged into the torn line, a
// delivered key would be forgotten by the ledger and a spilled alert would
// stop decoding in the journal. The torn line itself stays: a ledger key
// that lost only its newline is still a delivered identity.
func endTornLine(f *os.File, blob []byte) error {
	if len(blob) == 0 || blob[len(blob)-1] == '\n' {
		return nil
	}
	if _, err := f.Write([]byte{'\n'}); err != nil {
		return err
	}
	return f.Sync()
}

// alertKey is the delivery identity the sent ledger tracks — the same keys
// the watchers' dedup sets use, so ledger dedup is exactly the upstream
// exactly-once contract extended across checkpoint rollbacks.
func alertKey(a Alert) string {
	if a.TxHash != "" {
		return "tx:" + a.TxHash
	}
	if a.CodeHash != "" {
		return "code:" + a.CodeHash
	}
	if a.Address != "" {
		return "addr:" + a.Address
	}
	return ""
}

// wasSent reports whether key is in the sent ledger.
func (w *WALSink) wasSent(key string) bool {
	if key == "" {
		return false
	}
	w.mu.Lock()
	_, ok := w.sent[key]
	w.mu.Unlock()
	return ok
}

// markSent records a delivered identity, fsynced: a kill right after the
// inner sink accepted must not forget the delivery, or the restart replays
// it. Ledger write failures are swallowed — delivery already happened, and
// failing the Emit now would make the caller spill a delivered alert.
func (w *WALSink) markSent(key string) {
	if key == "" {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.sent[key]; ok {
		return
	}
	w.sent[key] = struct{}{}
	if w.sentF != nil {
		if _, err := w.sentF.Write(append([]byte(key), '\n')); err == nil {
			w.sentF.Sync()
		}
	}
}

// Emit implements Sink: deliver to the inner sink, spilling to the journal
// on failure. A spilled alert reports success to the caller — it is durably
// captured and will be re-delivered — so the pipeline's error counters only
// see double faults (sink down AND journal unwritable). An alert whose
// identity is already in the sent ledger is absorbed without touching the
// inner sink.
func (w *WALSink) Emit(a Alert) error {
	key := alertKey(a)
	if w.wasSent(key) {
		w.deduped.Add(1)
		return nil
	}
	if err := w.inner.Emit(a); err != nil {
		if jerr := w.journal(a); jerr != nil {
			return err
		}
		return nil
	}
	w.markSent(key)
	// The sink just proved healthy; drain any backlog behind this alert.
	if w.pendingN.Load() > 0 {
		w.Replay()
	}
	return nil
}

// journal appends one alert, fsynced so a crash right after the spill still
// replays it.
func (w *WALSink) journal(a Alert) error {
	line, err := json.Marshal(a)
	if err != nil {
		return fmt.Errorf("monitor: marshal journaled alert: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("monitor: alert journal closed")
	}
	if _, err := w.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("monitor: journal alert: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("monitor: sync alert journal: %w", err)
	}
	w.pending++
	w.pendingN.Store(w.pending)
	w.spilled.Add(1)
	return nil
}

// Replay re-offers journaled alerts to the inner sink in order, compacting
// delivered entries out of the journal. It returns how many alerts were
// delivered and how many remain (the sink refused them again). Undecodable
// lines are preserved, never silently discarded; entries whose identity the
// sent ledger already holds are dropped as duplicates without re-emission.
func (w *WALSink) Replay() (delivered, remaining int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pending == 0 {
		return 0, 0, nil
	}
	blob, err := os.ReadFile(w.path)
	if err != nil {
		return 0, 0, fmt.Errorf("monitor: read alert journal: %w", err)
	}
	var keep [][]byte
	var sentKeys []string
	for _, line := range bytes.Split(blob, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var a Alert
		if json.Unmarshal(line, &a) != nil {
			keep = append(keep, line)
			continue
		}
		key := alertKey(a)
		if key != "" {
			if _, ok := w.sent[key]; ok {
				w.deduped.Add(1)
				continue
			}
		}
		if w.inner.Emit(a) != nil {
			keep = append(keep, line)
			continue
		}
		delivered++
		if key != "" {
			w.sent[key] = struct{}{}
			sentKeys = append(sentKeys, key)
		}
	}
	if len(sentKeys) > 0 && w.sentF != nil {
		var batch []byte
		for _, key := range sentKeys {
			batch = append(batch, key...)
			batch = append(batch, '\n')
		}
		if _, err := w.sentF.Write(batch); err == nil {
			w.sentF.Sync()
		}
	}
	// Rewrite the journal with only the survivors: atomic replace, then
	// reopen the append handle on the new inode.
	var next []byte
	for _, line := range keep {
		next = append(next, line...)
		next = append(next, '\n')
	}
	if werr := lifecycle.WriteFileAtomic(w.path, next); werr != nil {
		return delivered, len(keep), fmt.Errorf("monitor: compact alert journal: %w", werr)
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, err = os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return delivered, len(keep), fmt.Errorf("monitor: reopen alert journal: %w", err)
	}
	w.pending = int64(len(keep))
	w.pendingN.Store(w.pending)
	w.replayed.Add(uint64(delivered))
	return delivered, len(keep), nil
}

// Stats snapshots the journal counters.
func (w *WALSink) Stats() WALStats {
	return WALStats{
		Pending:  w.pendingN.Load(),
		Spilled:  w.spilled.Load(),
		Replayed: w.replayed.Load(),
		Deduped:  w.deduped.Load(),
	}
}

// Close closes the journal and ledger file handles (pending entries and the
// sent set stay on disk for the next process).
func (w *WALSink) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if w.f != nil {
		err = w.f.Close()
		w.f = nil
	}
	if w.sentF != nil {
		if cerr := w.sentF.Close(); err == nil {
			err = cerr
		}
		w.sentF = nil
	}
	return err
}

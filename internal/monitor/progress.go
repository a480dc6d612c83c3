package monitor

import (
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// Progress is an ingestion loop's durable, exactly-once state: the identity
// set of claimed and judged hashes, the model version of the latest
// judgment, and the checkpoint file that persists them next to the loop's
// own cursor. The contract watcher and the backfill hold one through their
// Pipeline (bytecode hashes); the tx watcher holds one of its own (tx
// hashes). DESIGN §4.2 describes the file and the rules it keeps.
//
// A hash is claimed while its judgment is in flight, so a replay or a clone
// collapses into a dedup hit instead of a second score; it is judged once
// decided, and only judged hashes are saved. A claim released before its
// judgment lets a rescan judge the hash again.
type Progress struct {
	path     string
	every    time.Duration
	modality string

	mu      sync.Mutex
	seen    map[[32]byte]bool // false = claimed (in flight), true = judged
	judged  int               // count of true entries
	version string

	// saving is held by the one save in flight; last is guarded by it.
	saving sync.Mutex
	last   time.Time
}

// Mark is the loop-owned half of a checkpoint: the cursor and, for a
// backfill, one mark per shard.
type Mark struct {
	Cursor uint64
	shards []shardMark
}

// NewProgress returns an empty progress persisted at path (empty disables
// saving and loading) at most once per every, plus explicit flushes.
// modality marks the workload owning the file: "" for contracts, "tx" for
// the tx watcher; Resume refuses the other's files.
func NewProgress(path string, every time.Duration, modality string) *Progress {
	return &Progress{path: path, every: every, modality: modality, seen: make(map[[32]byte]bool)}
}

// Resume installs the checkpoint at the progress path — judged set and model
// version — and returns the mark saved with it. ok is false, with no error,
// when checkpointing is off or neither the file nor its .good copy exists.
func (p *Progress) Resume() (Mark, bool, error) {
	if p.path == "" {
		return Mark{}, false, nil
	}
	cp, ok, err := loadCheckpoint(p.path)
	if err != nil || !ok {
		return Mark{}, false, err
	}
	if cp.Modality != p.modality {
		return Mark{}, false, fmt.Errorf("monitor: checkpoint %s has modality %q, want %q", p.path, cp.Modality, p.modality)
	}
	hashes, err := cp.decodeSeen()
	if err != nil {
		return Mark{}, false, fmt.Errorf("monitor: checkpoint %s: %w", p.path, err)
	}
	p.mu.Lock()
	for _, h := range hashes {
		if !p.seen[h] {
			p.seen[h] = true
			p.judged++
		}
	}
	p.version = cp.ModelVersion
	p.mu.Unlock()
	return Mark{Cursor: cp.Cursor, shards: cp.Shards}, true, nil
}

// Claim marks h in flight and reports true, unless h is already claimed or
// judged. admit, when non-nil, runs under the set's lock once h is known to
// be new, and h is claimed only if it returns true: the pipeline decides
// enqueue-or-shed there, so a concurrent clone can never count a dedup hit
// against a deployment that was shed.
func (p *Progress) Claim(h [32]byte, admit func() bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.seen[h]; dup || (admit != nil && !admit()) {
		return false
	}
	p.seen[h] = false
	return true
}

// Release drops an unjudged claim so the next sighting of h judges it. A
// judged hash stays judged.
func (p *Progress) Release(h [32]byte) {
	p.mu.Lock()
	if judged, ok := p.seen[h]; ok && !judged {
		delete(p.seen, h)
	}
	p.mu.Unlock()
}

// Judge records h as durably decided, attributed to version; an empty
// version (a poisoned hash, an unversioned scorer) keeps the previous one.
func (p *Progress) Judge(h [32]byte, version string) {
	p.mu.Lock()
	if !p.seen[h] {
		p.seen[h] = true
		p.judged++
	}
	if version != "" {
		p.version = version
	}
	p.mu.Unlock()
}

// SeenUnique returns the number of judged hashes.
func (p *Progress) SeenUnique() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.judged
}

// ModelVersion returns the lifecycle version of the latest judgment,
// restored from the checkpoint on resume ("" before any versioned score).
func (p *Progress) ModelVersion() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.version
}

// Tick saves when the cadence has passed since the last save, reading the
// loop's position from mark. A due save that finds another in flight is
// skipped; what it would have saved lands with the next due save or the
// final Flush.
func (p *Progress) Tick(mark func() Mark) error {
	if p.path == "" || !p.saving.TryLock() {
		return nil
	}
	defer p.saving.Unlock()
	if time.Since(p.last) < p.every {
		return nil
	}
	return p.save(mark)
}

// Flush saves now, after the save in flight (if any) has landed. Loops call
// it once their workers have drained, so the final file claims only
// finished work.
func (p *Progress) Flush(mark func() Mark) error {
	if p.path == "" {
		return nil
	}
	p.saving.Lock()
	defer p.saving.Unlock()
	return p.save(mark)
}

// save snapshots and publishes one checkpoint; the caller holds p.saving.
// The mark is read before the judged set: a window committed between the
// two then only adds judged hashes (its rescan collapses into dedup hits),
// whereas the reverse order could record a cursor past hashes missing from
// the set. Only the hash copy runs under the set's lock; encoding and the
// write run outside it, so claims never wait on checkpoint I/O.
func (p *Progress) save(mark func() Mark) error {
	m := mark()
	p.mu.Lock()
	hashes := make([][32]byte, 0, p.judged)
	for h, judged := range p.seen {
		if judged {
			hashes = append(hashes, h)
		}
	}
	cp := checkpoint{Cursor: m.Cursor, ModelVersion: p.version, Modality: p.modality, Shards: m.shards}
	p.mu.Unlock()
	cp.Seen = make([]string, len(hashes))
	for i, h := range hashes {
		cp.Seen[i] = hex.EncodeToString(h[:])
	}
	err := saveCheckpoint(p.path, cp)
	p.last = time.Now()
	return err
}

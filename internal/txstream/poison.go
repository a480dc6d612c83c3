package txstream

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/phishinghook/phishinghook/internal/ethrpc"
)

// maxPoisonEntries bounds the quarantine set so a poisoned storm (a dead
// score backend, a chain of unfetchable callees) cannot grow memory without
// bound; overflow drops the oldest entry. The poisoned counter still records
// every poisoning, so monitoring sees the storm even when the set wraps.
const maxPoisonEntries = 4096

// PoisonEntry is one quarantined transaction: judged (the stream moved on)
// but never scored, held with enough context to retry it later.
type PoisonEntry struct {
	TxHash   string    `json:"tx_hash"`
	To       string    `json:"to"`
	Block    uint64    `json:"block"`
	LastErr  string    `json:"last_error"`
	Poisoned time.Time `json:"poisoned"`
}

// poisonRecord keeps the raw tx so a drain can re-judge it.
type poisonRecord struct {
	tx      ethrpc.PendingTx
	lastErr string
	when    time.Time
}

// poisonSet is the watcher's quarantine: txs that exhausted their score
// retries. Safe for concurrent use.
type poisonSet struct {
	mu      sync.Mutex
	byHash  map[[32]byte]poisonRecord
	order   [][32]byte // FIFO for bounded eviction
	drainMu sync.Mutex // serializes drains so a retry can never alert twice
}

func newPoisonSet() *poisonSet {
	return &poisonSet{byHash: make(map[[32]byte]poisonRecord)}
}

func (p *poisonSet) add(tx ethrpc.PendingTx, cause error) {
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	p.mu.Lock()
	if _, ok := p.byHash[tx.Hash]; !ok {
		p.order = append(p.order, tx.Hash)
		if len(p.order) > maxPoisonEntries {
			delete(p.byHash, p.order[0])
			p.order = p.order[1:]
		}
	}
	p.byHash[tx.Hash] = poisonRecord{tx: tx, lastErr: msg, when: time.Now().UTC()}
	p.mu.Unlock()
}

func (p *poisonSet) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.byHash)
}

func (p *poisonSet) snapshot() []poisonRecord {
	p.mu.Lock()
	out := make([]poisonRecord, 0, len(p.byHash))
	for _, r := range p.byHash {
		out = append(out, r)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].when.Before(out[j].when) })
	return out
}

func (p *poisonSet) remove(h [32]byte) {
	p.mu.Lock()
	if _, ok := p.byHash[h]; ok {
		delete(p.byHash, h)
		for i, oh := range p.order {
			if oh == h {
				p.order = append(p.order[:i], p.order[i+1:]...)
				break
			}
		}
	}
	p.mu.Unlock()
}

// PoisonList returns the quarantined transactions, oldest first.
func (w *Watcher) PoisonList() []PoisonEntry {
	recs := w.poison.snapshot()
	out := make([]PoisonEntry, len(recs))
	for i, r := range recs {
		out[i] = PoisonEntry{
			TxHash:   r.tx.HashHex(),
			To:       r.tx.To.String(),
			Block:    r.tx.Block,
			LastErr:  r.lastErr,
			Poisoned: r.when,
		}
	}
	return out
}

// PoisonDrainResult summarizes one drain pass over the quarantine.
type PoisonDrainResult struct {
	Retried int `json:"retried"`
	Scored  int `json:"scored"`
	Alerted int `json:"alerted"`
	Failed  int `json:"failed"`
}

// DrainPoison retries every quarantined tx against the current scorer and
// RPC plane: a tx that now scores leaves the set (alerting if it clears the
// threshold — its first and only alert, since poisoned txs never alerted),
// one that still faults stays quarantined. Drains are serialized, so two
// concurrent drains cannot double-alert; the operator calls this after the
// underlying fault (dead model version, unreachable endpoints) is fixed.
func (w *Watcher) DrainPoison(ctx context.Context) PoisonDrainResult {
	w.poison.drainMu.Lock()
	defer w.poison.drainMu.Unlock()
	var res PoisonDrainResult
	for _, rec := range w.poison.snapshot() {
		if ctx.Err() != nil {
			break
		}
		res.Retried++
		tx := rec.tx
		code, err := w.rpc.GetCode(ctx, tx.To)
		if err != nil {
			res.Failed++
			continue
		}
		v, err := w.scorer.ScoreTx(ctx, tx.Calldata, code)
		if err != nil {
			res.Failed++
			continue
		}
		res.Scored++
		if w.judgeScored(&tx, code, v) {
			res.Alerted++
		}
		w.poison.remove(tx.Hash)
	}
	return res
}

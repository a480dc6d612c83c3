// Package txstream implements the transaction-payload detection modality:
// a mempool-scale stream of pending transactions drained from the JSON-RPC
// pending-tx feed, judged by fusing a calldata payload score with the callee
// contract's cached code score, and alerted through the monitor's sink
// machinery with exactly-once semantics across restarts.
//
// Deployment-time scoring (the Watchtower) sees contracts; modern wallet
// drainers instead ride approve/permit/setApprovalForAll calldata against
// perfectly legitimate token contracts. The tx stream covers that surface:
//
//	pending-tx feed (batched eth_getFilterChanges over the plane)
//	    └─> tx-hash dedup ─> callee-code LRU ─> fused score pool
//	        └─> threshold ─> alert sinks (Modality="tx")
//
// Rates matter more here than anywhere else in the pipeline — mempool
// traffic dwarfs deployment traffic — so the feed amortizes one rate-limit
// token over up to 512 txs per poll and the fused score path is 0 allocs/op
// once both caches are warm.
package txstream

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/phishinghook/phishinghook/internal/dataset"
	"github.com/phishinghook/phishinghook/internal/monitor"
)

// TxVerdict is one fused transaction decision. The embedded Verdict holds
// the fused label and confidence and the scoring model(s), plus the code
// half's lifecycle version and evasion telemetry (zero for EOA callees or an
// unhardened detector; calldata has no reachability notion, so the payload
// half contributes none).
type TxVerdict struct {
	monitor.Verdict
	// PayloadProb is P(phishing | calldata) — 0 for empty calldata (a plain
	// value transfer carries no payload evidence).
	PayloadProb float64
	// CodeProb is P(phishing | callee bytecode) — 0 for EOA callees.
	CodeProb float64
}

// Scorer judges one transaction: its calldata plus its callee's deployed
// bytecode (nil for EOA callees). Implementations must be safe for
// concurrent use.
type Scorer interface {
	ScoreTx(ctx context.Context, calldata, code []byte) (TxVerdict, error)
}

// modelCombo caches the fused display name so the steady-state score path
// does not concatenate strings per call.
type modelCombo struct {
	payload, code, fused string
}

// Fused fuses a payload scorer (calldata features) with a code scorer (the
// existing deployment-time detector or Swappable handle) by noisy-OR:
//
//	P = 1 − (1 − P_payload)(1 − P_code)
//
// Either signal alone fires the fused verdict: a drainer payload against a
// legitimate token scores high on the payload half while the callee's code
// half stays quiet, and a benign-looking payload sent into a phishing
// contract scores high on the code half. The two failure modes of each
// single modality are exactly the other's strength.
type Fused struct {
	payload monitor.Scorer
	code    monitor.Scorer
	combo   atomic.Pointer[modelCombo]
}

// NewFused builds the fused scorer.
func NewFused(payload, code monitor.Scorer) (*Fused, error) {
	if payload == nil || code == nil {
		return nil, fmt.Errorf("txstream: NewFused needs both a payload and a code scorer")
	}
	return &Fused{payload: payload, code: code}, nil
}

// fusedModel returns "payload+code", reusing the cached concatenation while
// the underlying model names are stable (they change only on hot swap).
func (f *Fused) fusedModel(payload, code string) string {
	if c := f.combo.Load(); c != nil && c.payload == payload && c.code == code {
		return c.fused
	}
	c := &modelCombo{payload: payload, code: code, fused: payload + "+" + code}
	f.combo.Store(c)
	return c.fused
}

// ScoreTx implements Scorer.
func (f *Fused) ScoreTx(ctx context.Context, calldata, code []byte) (TxVerdict, error) {
	var out TxVerdict
	var payloadModel string
	if len(calldata) > 0 {
		pv, err := f.payload.Score(ctx, calldata)
		if err != nil {
			return out, fmt.Errorf("txstream: payload score: %w", err)
		}
		out.PayloadProb = pv.PhishProb()
		payloadModel = pv.ModelName
	}
	if len(code) > 0 {
		cv, err := f.code.Score(ctx, code)
		if err != nil {
			return out, fmt.Errorf("txstream: code score: %w", err)
		}
		// The code half's model, version and telemetry carry over; the
		// label and confidence are replaced by the fused ones below.
		out.Verdict = cv
		out.CodeProb = cv.PhishProb()
	}
	fused := 1 - (1-out.PayloadProb)*(1-out.CodeProb)
	out.Label, out.Confidence = dataset.Benign, 1-fused
	if fused >= 0.5 {
		out.Label, out.Confidence = dataset.Phishing, fused
	}
	switch {
	case payloadModel != "" && out.ModelName != "":
		out.ModelName = f.fusedModel(payloadModel, out.ModelName)
	case payloadModel != "":
		out.ModelName = payloadModel
	}
	return out, nil
}

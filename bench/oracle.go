package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	ph "github.com/phishinghook/phishinghook"
	"github.com/phishinghook/phishinghook/internal/chain"
)

// contractThreshold is the watchers' default alert threshold.
const contractThreshold = 0.5

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / float64(time.Millisecond) }

// expectation is what the reference says a contract alert stream holds:
// every distinct bytecode released in the window alerts exactly once, with
// the reference's confidence, iff the reference flags it.
type expectation struct {
	first    map[string]*chain.Contract // code hash -> first deployment in the window
	want     map[string]float64         // code hash -> confidence of each expected alert
	distinct int
}

func expectContracts(ctx context.Context, contracts []*chain.Contract, ref *ph.Detector) (expectation, error) {
	e := expectation{first: map[string]*chain.Contract{}, want: map[string]float64{}}
	var order []string
	var codes [][]byte
	for _, ct := range contracts {
		h := hashHex(ct.Code)
		if _, ok := e.first[h]; !ok {
			e.first[h] = ct
			order = append(order, h)
			codes = append(codes, ct.Code)
		}
	}
	e.distinct = len(order)
	vs, err := ref.ScoreBatch(ctx, codes)
	if err != nil {
		return e, fmt.Errorf("reference contract scores: %w", err)
	}
	for i, v := range vs {
		if v.IsPhishing() && v.Confidence >= contractThreshold {
			e.want[order[i]] = v.Confidence
		}
	}
	return e, nil
}

// checkContracts compares contract alerts with the expectation and returns
// the time-to-alert of each alert, from the release of the bytecode's first
// deployment in the window.
func (m *measurement) checkContracts(e expectation, alerts []timedAlert, rel *releases) []point {
	got := map[string]int{}
	var tta []point
	var dup, extra, wrong, lost int
	for _, a := range alerts {
		if got[a.CodeHash]++; got[a.CodeHash] > 1 {
			dup++
			continue
		}
		conf, ok := e.want[a.CodeHash]
		if !ok {
			extra++
			continue
		}
		if conf != a.Confidence {
			wrong++
		}
		if due, ok := rel.at(e.first[a.CodeHash].Block); ok {
			tta = append(tta, point{pos: rel.pos(due), ms: msSince(due, a.at)})
		}
	}
	for h := range e.want {
		if got[h] == 0 {
			lost++
		}
	}
	m.attempted += int64(e.distinct)
	m.fail(lost, "contract alerts lost")
	m.fail(dup, "duplicate contract alerts")
	m.fail(extra, "contract alerts the reference does not raise")
	m.fail(wrong, "contract alerts whose confidence differs from the reference")
	return tta
}

// checkTxs compares tx alerts with the reference fused scorer fed the callee
// code visible at the tx's block. Two kinds of tx have a second valid
// answer, because the watcher reads callee code at fetch time through an
// LRU that also caches "no code": a tx sent before its callee was deployed
// (the watcher may already see the code), and a tx whose callee was called
// before its deployment by an earlier tx in the run (the watcher may still
// hold the cached empty answer). Either answer passes for those; the ones
// that differ from the reference are counted as stale callee verdicts, not
// failures.
func (m *measurement) checkTxs(ctx context.Context, w *world, txs []*chain.Tx, end uint64, alerts []timedAlert,
	ref ph.TxScorer, threshold float64, rel *releases) ([]point, error) {
	inWindow := map[string]bool{}
	firstCall := map[chain.Address]uint64{}
	for _, tx := range txs {
		inWindow[tx.HashHex()] = true
		if b, ok := firstCall[tx.To]; !ok || tx.Block < b {
			firstCall[tx.To] = tx.Block
		}
	}
	got := map[string]timedAlert{}
	var dup, extra int
	for _, a := range alerts {
		if _, ok := got[a.TxHash]; ok {
			dup++
			continue
		}
		if !inWindow[a.TxHash] {
			extra++
			continue
		}
		got[a.TxHash] = a
	}
	var tta []point
	var failed, stale, preDeploy, afterPreDeployCall int
	for _, tx := range txs {
		a, alerted := got[tx.HashHex()]
		matches := func(code []byte) (bool, error) {
			v, err := ref.ScoreTx(ctx, tx.Calldata, code)
			if err != nil {
				return false, fmt.Errorf("reference tx score: %w", err)
			}
			p := v.PhishProb()
			if alerted {
				return p >= threshold && p == a.Confidence, nil
			}
			return p < threshold, nil
		}
		var atTx, other []byte
		ambiguous := false
		if ct, ok := w.byAddr[tx.To]; ok {
			if ct.Block <= tx.Block {
				atTx = ct.Code
			} else {
				preDeploy++
			}
			if ct.Block <= end && firstCall[tx.To] < ct.Block {
				ambiguous = true
				if atTx == nil {
					other = ct.Code
				} else {
					afterPreDeployCall++
				}
			}
		}
		ok, err := matches(atTx)
		if err != nil {
			return nil, err
		}
		if !ok && ambiguous {
			if ok, err = matches(other); err != nil {
				return nil, err
			}
			if ok {
				stale++
			}
		}
		if !ok {
			failed++
		}
		if alerted {
			if due, ok := rel.at(tx.Block); ok {
				tta = append(tta, point{pos: rel.pos(due), ms: msSince(due, a.at)})
			}
		}
	}
	m.attempted += int64(len(txs))
	m.fail(failed, "tx verdicts that match no valid reference answer")
	m.fail(dup, "duplicate tx alerts")
	m.fail(extra, "tx alerts outside the released window")
	m.layer["txstream.stale_callee_verdicts"] = float64(stale)
	m.note("txs: %d released, %d alerts; %.1f%% call a contract deployed after the tx, %.1f%% follow an earlier pre-deploy call to their callee; %d stale callee verdicts",
		len(txs), len(got), 100*ratio(float64(preDeploy), float64(len(txs))),
		100*ratio(float64(afterPreDeployCall), float64(len(txs))), stale)
	return tta, nil
}

// liveClosure links each alert to the spans that produced it and reports the
// share of the total time-to-alert that no stage covers. A contract alert's
// stages are: waiting until the watcher lists the block's window (clock lag,
// poll interval, earlier windows), the registry listing, the eth_getCode
// batch carrying the address, the detector score and the sink. A tx alert's
// are: waiting for the feed poll that delivered it, the poll, the callee
// fetch if there was one, the fused score and the sink. What is left is
// queueing and client-side decoding between stages. Each stream's time is
// also broken down by stage.
func (m *measurement) liveClosure(tr *tracer, spans map[string][]span, w *world, e expectation, calerts, talerts []timedAlert, rel *releases) {
	batchFetch := map[string]span{}
	singleFetch := map[string][]span{}
	for _, s := range spans["ethrpc.eth_getCode"] {
		for _, a := range s.Keys {
			if _, ok := batchFetch[a]; !ok {
				batchFetch[a] = s
			}
		}
		if s.Key != "" {
			singleFetch[s.Key] = append(singleFetch[s.Key], s)
		}
	}
	polls := map[string]span{}
	for _, s := range spans["ethrpc.eth_getFilterChanges"] {
		for _, h := range s.Keys {
			polls[h] = s
		}
	}
	index := func(name string) map[string][]span {
		out := map[string][]span{}
		for _, s := range spans[name] {
			out[s.Key] = append(out[s.Key], s)
		}
		return out
	}
	scores, txScores, emits := index("detector.score"), index("txstream.score_tx"), index("monitor.sink_emit")
	// firstAfter returns the first span starting at or after t.
	firstAfter := func(ss []span, t int64) (span, bool) {
		for _, s := range ss {
			if s.Start >= t {
				return s, true
			}
		}
		return span{}, false
	}

	var cStages, tStages [5]time.Duration
	var cTotal, tTotal time.Duration
	linked, unlinked := 0, 0
	for _, a := range calerts {
		addr, err := chain.ParseAddress(a.Address)
		ct, ok := w.byAddr[addr]
		first, firstOK := e.first[a.CodeHash]
		if err != nil || !ok || !firstOK {
			unlinked++
			continue
		}
		due, relOK := rel.at(first.Block)
		if !relOK {
			unlinked++
			continue
		}
		var list span
		found := false
		for _, s := range spans["explorer.list"] {
			if s.From <= ct.Block && ct.Block <= s.To {
				list, found = s, true
				break
			}
		}
		fetch, fok := batchFetch[a.Address]
		score, sok := firstAfter(scores[a.CodeHash], fetch.End)
		emit, eok := firstAfter(emits[a.CodeHash], score.End)
		if !found || !fok || !sok || !eok {
			unlinked++
			continue
		}
		wait := time.Duration(list.Start - tr.at(due))
		addStages(&cStages, wait, list.dur(), fetch.dur(), score.dur(), emit.dur())
		cTotal += a.at.Sub(due)
		linked++
	}
	for _, a := range talerts {
		h, ok := hexHash(a.TxHash)
		tx, txOK := w.chain.TxByHash(h)
		poll, pok := polls[a.TxHash]
		if !ok || !txOK || !pok {
			unlinked++
			continue
		}
		due, relOK := rel.at(tx.Block)
		emit, eok := firstAfter(emits[a.TxHash], poll.End)
		var score span
		sok := false
		for _, s := range txScores[txScoreKey(tx.Calldata, a.CodeHash)] {
			if s.Start >= poll.End && s.End <= emit.Start {
				score, sok = s, true
			}
		}
		if !relOK || !eok || !sok {
			unlinked++
			continue
		}
		var fetch time.Duration
		for _, s := range singleFetch[tx.To.String()] {
			if s.Start >= poll.End && s.End <= score.Start {
				fetch = s.dur()
			}
		}
		wait := time.Duration(poll.Start - tr.at(due))
		addStages(&tStages, wait, poll.dur(), fetch, score.dur(), emit.dur())
		tTotal += a.at.Sub(due)
		linked++
	}
	var stages time.Duration
	for i := range cStages {
		stages += cStages[i] + tStages[i]
	}
	share := clamp01(1 - ratio(float64(stages), float64(cTotal+tTotal)))
	m.layer["bench.unaccounted_share"] = share
	m.note("closure: %d alerts linked to their spans, %d not; %.1f%% of time-to-alert outside every stage",
		linked, unlinked, 100*share)
	m.note("contract time-to-alert by stage: %s", stageShares([]string{"wait", "list", "fetch", "score", "sink"}, cStages, cTotal))
	m.note("tx time-to-alert by stage: %s", stageShares([]string{"wait", "poll", "fetch", "score", "sink"}, tStages, tTotal))
}

func addStages(sum *[5]time.Duration, ds ...time.Duration) {
	for i, d := range ds {
		sum[i] += d
	}
}

// stageShares formats each stage's share of the total time.
func stageShares(names []string, sum [5]time.Duration, total time.Duration) string {
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s %.1f%%", n, 100*ratio(float64(sum[i]), float64(total)))
	}
	return strings.Join(parts, ", ")
}

// hexHash parses a 0x-prefixed 32-byte hash.
func hexHash(s string) ([32]byte, bool) {
	var h [32]byte
	b, err := ph.DecodeHex(s)
	if err != nil || len(b) != len(h) {
		return h, false
	}
	copy(h[:], b)
	return h, true
}

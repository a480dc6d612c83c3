package txstream

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/monitor"
)

// TestPoisonDrainAlertsFirstAndOnly runs the watcher with a scorer whose
// phishing-side inference faults persistently (every retry exhausted): those
// txs must land in quarantine unalerted, survive a drain attempt while the
// fault persists, and then — once the scorer heals — drain with exactly one
// alert each, leaving the set empty. It runs once with plain healed verdicts
// and once with evasion-suspect ones, whose flag every drained alert must
// carry as a first-pass alert would.
func TestPoisonDrainAlertsFirstAndOnly(t *testing.T) {
	for _, suspect := range []bool{false, true} {
		t.Run(fmt.Sprintf("suspect=%v", suspect), func(t *testing.T) { testPoisonDrain(t, suspect) })
	}
}

func testPoisonDrain(t *testing.T, suspect bool) {
	c := testTxChain(t, 200)
	srv := httptest.NewServer(ethrpc.NewServer(c, 1))
	defer srv.Close()

	errModel := errors.New("calldata model faulted")
	var healed atomic.Bool
	flaky := txScorer(func(_ context.Context, calldata, _ []byte) (TxVerdict, error) {
		if !parityPhish(calldata) {
			return parityVerdict(false), nil
		}
		if !healed.Load() {
			return TxVerdict{}, errModel
		}
		v := parityVerdict(true)
		v.EvasionSuspect = suspect
		return v, nil
	})

	sink := &collectSink{}
	w, err := New(flaky, Config{
		RPCURL:       srv.URL,
		StopAtBlock:  c.HeadBlock(),
		PollInterval: 1,
		Sinks:        []monitor.Sink{sink},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}

	want := expectedPhishHashes(c)
	if len(want) == 0 {
		t.Fatal("test chain produced no expected alerts")
	}
	if n := len(sink.snapshot()); n != 0 {
		t.Fatalf("%d alerts fired while every phishing score faulted", n)
	}
	list := w.PoisonList()
	if len(list) != len(want) {
		t.Fatalf("quarantined %d txs, want every phishing tx (%d)", len(list), len(want))
	}
	for _, e := range list {
		if !want[e.TxHash] {
			t.Fatalf("benign tx quarantined: %+v", e)
		}
		if e.LastErr != errModel.Error() {
			t.Fatalf("entry cause = %q, want the scorer fault", e.LastErr)
		}
	}
	if st := w.Stats(); st.PoisonPending != len(want) || st.Cursor != c.HeadBlock() {
		t.Fatalf("stats = %+v; poisoning must not stall the cursor", st)
	}

	ctx := context.Background()
	// A drain while the fault persists keeps everything quarantined.
	res := w.DrainPoison(ctx)
	if res.Retried != len(want) || res.Failed != len(want) || res.Scored != 0 || res.Alerted != 0 {
		t.Fatalf("drain against a still-broken scorer: %+v", res)
	}
	if w.poison.len() != len(want) {
		t.Fatalf("failed drain shrank the set to %d", w.poison.len())
	}

	healed.Store(true)
	res = w.DrainPoison(ctx)
	if res.Retried != len(want) || res.Scored != len(want) || res.Alerted != len(want) || res.Failed != 0 {
		t.Fatalf("drain after heal: %+v", res)
	}
	if n := w.poison.len(); n != 0 {
		t.Fatalf("%d entries left after a clean drain", n)
	}

	got := map[string]int{}
	for _, a := range sink.snapshot() {
		if a.Modality != "tx" || a.TxHash == "" {
			t.Fatalf("drained alert missing tx attribution: %+v", a)
		}
		if a.EvasionSuspect != suspect {
			t.Fatalf("drained alert evasion_suspect = %v, want the healed verdict's %v: %+v", a.EvasionSuspect, suspect, a)
		}
		got[a.TxHash]++
	}
	if len(got) != len(want) {
		t.Fatalf("drained alerts cover %d txs, want %d", len(got), len(want))
	}
	for h, n := range got {
		if n != 1 || !want[h] {
			t.Fatalf("tx %s alerted %d times (expected %v)", h, n, want[h])
		}
	}

	// The set is drained: a further pass has nothing to retry.
	if res = w.DrainPoison(ctx); res.Retried != 0 {
		t.Fatalf("drain of an empty set retried %d", res.Retried)
	}
}

package ethrpc

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/synth"
)

func testTxChain(t *testing.T, total int) *chain.Chain {
	t.Helper()
	c := testChain(t)
	err := chain.BuildTxTraffic(c, chain.TxTrafficConfig{
		Generator: synth.NewTxGenerator(synth.TxConfig{Seed: 5}),
		PerMonth:  chain.UniformTxTraffic(total),
	})
	if err != nil {
		t.Fatalf("build tx traffic: %v", err)
	}
	return c
}

func TestTxFilterDrainsWholeLog(t *testing.T) {
	c := testTxChain(t, 300)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()
	client := newClient(srv.URL)
	ctx := context.Background()

	id, err := client.NewPendingTxFilter(ctx, 0)
	if err != nil {
		t.Fatalf("NewPendingTxFilter: %v", err)
	}
	var got []PendingTx
	for {
		batch, err := client.TxFilterChanges(ctx, id)
		if err != nil {
			t.Fatalf("TxFilterChanges: %v", err)
		}
		if len(batch) == 0 {
			break
		}
		got = append(got, batch...)
	}
	want := c.TxsInRange(0, ^uint64(0))
	if len(got) != len(want) {
		t.Fatalf("feed drained %d txs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Hash != want[i].Hash || got[i].Block != want[i].Block ||
			got[i].From != want[i].From || got[i].To != want[i].To {
			t.Fatalf("feed tx %d diverges from the log", i)
		}
		if string(got[i].Calldata) != string(want[i].Calldata) {
			t.Fatalf("feed tx %d calldata diverges", i)
		}
	}
}

func TestTxFilterResumesFromBlock(t *testing.T) {
	c := testTxChain(t, 200)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()
	client := newClient(srv.URL)
	ctx := context.Background()

	all := c.TxsInRange(0, ^uint64(0))
	mid := all[len(all)/2].Block
	id, err := client.NewPendingTxFilter(ctx, mid)
	if err != nil {
		t.Fatalf("NewPendingTxFilter: %v", err)
	}
	batch, err := client.TxFilterChanges(ctx, id)
	if err != nil {
		t.Fatalf("TxFilterChanges: %v", err)
	}
	if len(batch) == 0 {
		t.Fatal("resumed feed returned nothing")
	}
	for _, tx := range batch {
		if tx.Block < mid {
			t.Fatalf("resumed feed leaked tx at block %d < %d", tx.Block, mid)
		}
	}
}

func TestTxFilterNotFound(t *testing.T) {
	c := testTxChain(t, 50)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()
	client := newClient(srv.URL)
	ctx := context.Background()

	id, err := client.NewPendingTxFilter(ctx, 0)
	if err != nil {
		t.Fatalf("NewPendingTxFilter: %v", err)
	}
	ok, err := client.UninstallFilter(ctx, id)
	if err != nil || !ok {
		t.Fatalf("UninstallFilter = %v, %v", ok, err)
	}
	if _, err := client.TxFilterChanges(ctx, id); !errors.Is(err, ErrFilterNotFound) {
		t.Fatalf("poll of uninstalled filter: %v, want ErrFilterNotFound", err)
	}
	if ok, _ := client.UninstallFilter(ctx, "0xdead"); ok {
		t.Fatal("uninstalling an unknown filter reported true")
	}
}

func TestGetTransactionByHash(t *testing.T) {
	c := testTxChain(t, 60)
	srv := httptest.NewServer(NewServer(c, 1))
	defer srv.Close()
	client := newClient(srv.URL)
	ctx := context.Background()

	want := c.TxsInRange(0, ^uint64(0))[7]
	tx, ok, err := client.GetTransactionByHash(ctx, want.Hash)
	if err != nil || !ok {
		t.Fatalf("GetTransactionByHash: ok=%v err=%v", ok, err)
	}
	if tx.Hash != want.Hash || tx.To != chain.Address(want.To) || tx.Block != want.Block {
		t.Fatal("fetched tx diverges from the log")
	}
	if _, ok, err := client.GetTransactionByHash(ctx, [32]byte{0xde, 0xad}); err != nil || ok {
		t.Fatalf("unknown hash: ok=%v err=%v, want null result", ok, err)
	}
}

func TestTxFeedLiveVisibilityAndPinning(t *testing.T) {
	c := testTxChain(t, 200)
	all := c.TxsInRange(0, ^uint64(0))
	mid := all[len(all)/2].Block
	if err := c.GoLive(mid); err != nil {
		t.Fatalf("GoLive: %v", err)
	}

	srvA := httptest.NewServer(NewServer(c, 1))
	defer srvA.Close()
	serverB := NewServer(c, 1)
	srvB := httptest.NewServer(serverB)
	defer srvB.Close()

	m, err := NewMultiClient([]string{srvA.URL, srvB.URL})
	if err != nil {
		t.Fatalf("NewMultiClient: %v", err)
	}
	ctx := context.Background()
	feed, err := m.OpenTxFeed(ctx, 0)
	if err != nil {
		t.Fatalf("OpenTxFeed: %v", err)
	}
	pinned := feed.Node().Name()

	var got []PendingTx
	for {
		batch, err := feed.Poll(ctx)
		if err != nil {
			t.Fatalf("Poll: %v", err)
		}
		if len(batch) == 0 {
			break
		}
		got = append(got, batch...)
	}
	// Only the released prefix is visible pre-advance.
	for _, tx := range got {
		if tx.Block > mid {
			t.Fatalf("live feed leaked tx at block %d above head %d", tx.Block, mid)
		}
	}
	if len(got) == 0 || len(got) >= len(all) {
		t.Fatalf("live feed drained %d of %d txs, want a strict prefix", len(got), len(all))
	}

	// Advancing the head releases the rest, still on the pinned node.
	c.AdvanceHead(^uint64(0) >> 1)
	for {
		batch, err := feed.Poll(ctx)
		if err != nil {
			t.Fatalf("Poll after advance: %v", err)
		}
		if len(batch) == 0 {
			break
		}
		got = append(got, batch...)
	}
	if len(got) != len(all) {
		t.Fatalf("feed drained %d txs total, want %d", len(got), len(all))
	}
	if feed.Node().Name() != pinned {
		t.Fatalf("feed migrated from %s to %s", pinned, feed.Node().Name())
	}
	if err := feed.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := feed.Poll(ctx); !errors.Is(err, ErrFilterNotFound) {
		t.Fatalf("poll of closed feed: %v, want ErrFilterNotFound", err)
	}
}

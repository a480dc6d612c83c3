package ethrpc

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"github.com/phishinghook/phishinghook/internal/chain"
)

// ErrFilterNotFound reports that the polled endpoint no longer knows the
// filter (node restart, filter GC, failover to a different node). The caller
// reinstalls a fresh filter from its own cursor — this is the tx watcher's
// resume path.
var ErrFilterNotFound = errors.New("ethrpc: filter not found")

// PendingTx is one decoded pending transaction from the feed.
type PendingTx struct {
	Hash     [32]byte
	From     chain.Address
	To       chain.Address
	Value    uint64
	Calldata []byte
	Block    uint64
}

// HashHex renders the tx hash as 0x-prefixed lowercase hex.
func (t *PendingTx) HashHex() string { return "0x" + hex.EncodeToString(t.Hash[:]) }

// decodedWireTx mirrors the server's wireTx JSON shape for decoding.
type decodedWireTx struct {
	Hash        string  `json:"hash"`
	From        string  `json:"from"`
	To          string  `json:"to"`
	Value       string  `json:"value"`
	Input       hexData `json:"input"`
	BlockNumber string  `json:"blockNumber"`
}

func (w *decodedWireTx) decode() (PendingTx, error) {
	var tx PendingTx
	h := strings.TrimPrefix(strings.TrimPrefix(w.Hash, "0x"), "0X")
	raw, err := hex.DecodeString(h)
	if err != nil || len(raw) != 32 {
		return tx, fmt.Errorf("ethrpc: bad tx hash %q", w.Hash)
	}
	copy(tx.Hash[:], raw)
	if tx.From, err = chain.ParseAddress(w.From); err != nil {
		return tx, err
	}
	if tx.To, err = chain.ParseAddress(w.To); err != nil {
		return tx, err
	}
	if tx.Value, err = parseHexQuantity(w.Value); err != nil {
		return tx, err
	}
	if tx.Block, err = parseHexQuantity(w.BlockNumber); err != nil {
		return tx, err
	}
	if w.Input.err != nil {
		return tx, fmt.Errorf("ethrpc: bad tx input: %w", w.Input.err)
	}
	tx.Calldata = w.Input.b
	return tx, nil
}

// filterError maps the server's -32000 application error onto the sentinel.
func filterError(err error) error {
	var re *rpcError
	if errors.As(err, &re) && re.Code == codeFilterNotFound {
		return fmt.Errorf("%w (%s)", ErrFilterNotFound, re.Message)
	}
	return err
}

// NewPendingTxFilter installs a pending-transaction filter starting at
// fromBlock and returns its ID. Filters are per-node server state: after a
// failover the ID is worthless and must be reinstalled.
func (c *client) NewPendingTxFilter(ctx context.Context, fromBlock uint64) (string, error) {
	return call[string](ctx, c, "eth_newPendingTransactionFilter", hexUint(fromBlock))
}

// TxFilterChanges drains the filter's newly visible transactions (full tx
// objects, up to the server's per-poll cap). One poll costs one rate-limit
// token however many txs it returns. A forgotten filter surfaces as
// ErrFilterNotFound.
func (c *client) TxFilterChanges(ctx context.Context, id string) ([]PendingTx, error) {
	wire, err := call[[]decodedWireTx](ctx, c, "eth_getFilterChanges", id)
	if err != nil {
		return nil, filterError(err)
	}
	out := make([]PendingTx, len(wire))
	for i := range wire {
		if out[i], err = wire[i].decode(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// UninstallFilter removes a filter, reporting whether the node knew it.
func (c *client) UninstallFilter(ctx context.Context, id string) (bool, error) {
	return call[bool](ctx, c, "eth_uninstallFilter", id)
}

// TxFeed is an open pending-transaction feed over the plane. A filter is
// per-node server state, so the feed pins the node that installed it — but
// every poll is still scheduled through the plane (within = the pinned
// node), so the node's AIMD window, health accounting, 429/Retry-After
// handling and transient retries all apply. When the pinned node forgets the
// filter, Poll returns ErrFilterNotFound and the owner reopens the feed from
// its own cursor — possibly landing on a different node.
type TxFeed struct {
	m    *MultiClient
	node *Node
	id   string
}

// OpenTxFeed installs a pending-transaction filter starting at fromBlock on
// the node the plane schedules the install onto, and returns the pinned
// feed.
func (m *MultiClient) OpenTxFeed(ctx context.Context, fromBlock uint64) (*TxFeed, error) {
	type install struct {
		node *Node
		id   string
	}
	got, err := PlaneDo(ctx, m.plane, nil, func(ctx context.Context, n *Node) (install, error) {
		id, err := m.clients[n.Index()].NewPendingTxFilter(ctx, fromBlock)
		return install{node: n, id: id}, err
	})
	if err != nil {
		return nil, err
	}
	return &TxFeed{m: m, node: got.node, id: got.id}, nil
}

// Node returns the endpoint the feed is pinned to.
func (f *TxFeed) Node() *Node { return f.node }

// Poll drains the next batch of pending transactions. ErrFilterNotFound
// means the feed is dead and must be reopened.
func (f *TxFeed) Poll(ctx context.Context) ([]PendingTx, error) {
	return PlaneDo(ctx, f.m.plane, []*Node{f.node}, func(ctx context.Context, n *Node) ([]PendingTx, error) {
		return f.m.clients[n.Index()].TxFilterChanges(ctx, f.id)
	})
}

// Close uninstalls the feed's filter (best effort).
func (f *TxFeed) Close(ctx context.Context) error {
	_, err := PlaneDo(ctx, f.m.plane, []*Node{f.node}, func(ctx context.Context, n *Node) (bool, error) {
		return f.m.clients[n.Index()].UninstallFilter(ctx, f.id)
	})
	return err
}

// GetCodeAt fetches bytecode through the plane (any node — code is global
// state, unlike filters). It simply forwards to the MultiClient; the feed
// exposes it so the tx watcher needs one handle.
func (f *TxFeed) GetCodeAt(ctx context.Context, addr chain.Address) ([]byte, error) {
	return f.m.GetCode(ctx, addr)
}

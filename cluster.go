package phishinghook

import (
	"context"
	"time"

	"github.com/phishinghook/phishinghook/internal/cluster"
	"github.com/phishinghook/phishinghook/internal/httpapi"
)

// Scoring-cluster re-exports: the consistent-hash router and its clients
// live in internal/cluster; these aliases let embedders and the CLI build a
// cluster without reaching into internal packages (the same pattern as the
// Watchtower and lifecycle re-exports).
type (
	// ClusterConfig tunes a scoring-cluster router.
	ClusterConfig = cluster.Config
	// ClusterRouter consistent-hashes /score traffic across replicas.
	ClusterRouter = cluster.Router
	// ClusterRing is the router's consistent-hash ring.
	ClusterRing = cluster.Ring
	// ClusterStats snapshots a router's counters and per-replica plane.
	ClusterStats = cluster.Stats
	// ClusterScoreClient scores through a router (or one replica) with
	// typed retry and Retry-After honoring.
	ClusterScoreClient = cluster.ScoreClient
	// ClusterReplicaState is one replica's row in the cluster survey.
	ClusterReplicaState = cluster.ReplicaState
	// ClusterRollingStep records one stage of a rolling promote/reload.
	ClusterRollingStep = cluster.RollingStep
	// ClusterScoreOption configures a ClusterScoreClient / RemoteScorer.
	ClusterScoreOption = cluster.ScoreClientOption
)

// WithScoreRetries sets a score client's attempts and base backoff.
func WithScoreRetries(attempts int, backoff time.Duration) ClusterScoreOption {
	return cluster.WithScoreRetries(attempts, backoff)
}

// NewClusterRouter builds a consistent-hash scoring router over replica
// base URLs.
func NewClusterRouter(cfg ClusterConfig) (*ClusterRouter, error) { return cluster.NewRouter(cfg) }

// NewClusterScoreClient builds a retrying /score client for a router or
// replica base URL.
func NewClusterScoreClient(base string, opts ...cluster.ScoreClientOption) *ClusterScoreClient {
	return cluster.NewScoreClient(base, opts...)
}

// ClusterTxScoreItem is one transaction on the cluster /score/tx wire (the
// same type as TxScoreItem).
type ClusterTxScoreItem = httpapi.TxScoreItem

// RemoteScorer adapts a cluster scoring endpoint (router or single replica)
// onto both scorer surfaces — CodeScorer via /score and the transaction
// TxScorer via /score/tx — so a watcher, backfill or TxWatcher can monitor
// the chain through the scoring cluster instead of an in-process detector.
// Alerts then benefit from the cluster-wide dedup cache and survive replica
// kills via the router's neighborhood failover; tx traffic shards by callee
// bytecode SHA-256, the same key contract traffic shards by.
type RemoteScorer struct{ c *ClusterScoreClient }

// NewRemoteScorer builds a CodeScorer over a router/replica base URL, e.g.
// "http://127.0.0.1:8970".
func NewRemoteScorer(base string, opts ...cluster.ScoreClientOption) *RemoteScorer {
	return &RemoteScorer{c: cluster.NewScoreClient(base, opts...)}
}

// Score scores one bytecode through the cluster.
func (r *RemoteScorer) Score(ctx context.Context, code []byte) (Verdict, error) {
	vs, err := r.c.ScoreHexBatch(ctx, []string{EncodeHex(code)})
	if err != nil {
		return Verdict{}, err
	}
	return fromWire(vs[0]), nil
}

// ScoreTx scores one transaction (calldata + callee bytecode, either may be
// empty) through the cluster's /score/tx endpoint. RemoteScorer therefore
// satisfies TxScorer, so NewTxWatcher can drain the pending-tx feed against
// a remote fused scorer instead of an in-process one.
func (r *RemoteScorer) ScoreTx(ctx context.Context, calldata, code []byte) (TxVerdict, error) {
	items := []ClusterTxScoreItem{{Calldata: EncodeHex(calldata), Code: EncodeHex(code)}}
	vs, err := r.c.ScoreTxBatch(ctx, items)
	if err != nil {
		return TxVerdict{}, err
	}
	v := vs[0]
	return TxVerdict{Verdict: fromWire(v), PayloadProb: v.PayloadProb, CodeProb: v.CodeProb}, nil
}

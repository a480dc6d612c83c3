package phishinghook

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// uptimeSample matches the two samples that differ between runs: the
// replica's and the router's *_uptime_seconds gauges.
var uptimeSample = regexp.MustCompile(`(?m)^(phishinghook_(?:cluster_)?uptime_seconds) .*$`)

// scrapeMetrics GETs /metrics from h and masks the uptime samples.
func scrapeMetrics(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	return uptimeSample.ReplaceAllString(rec.Body.String(), "$1 <masked>")
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("/metrics differs from testdata/%s:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// replicaMetricsHandlers builds, before any traffic, the two replica
// handlers whose expositions together cover every series family the replica
// renders: a telemetry Detector with a watcher (restored from a checkpoint
// naming a model version), a backfill, a tx watcher (likewise restored) and a
// retrainer attached, and a Swappable with a champion and a challenger.
// Every RPC and explorer URL is a fixed name that is never dialled.
func replicaMetricsHandlers(t *testing.T) (detector, swappable http.Handler) {
	t.Helper()
	ds, _ := testCorpus(t)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, ds, WithDetectorSeed(2), WithCanonicalFeatures(), WithEvasionTelemetry())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rpcs := []string{"http://rpc-a", "http://rpc-b"}

	watchCP := filepath.Join(dir, "watch.cursor")
	if err := os.WriteFile(watchCP, []byte(`{"version":1,"cursor":42,"model_version":"v-watch"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := NewWatcher(det, WatcherConfig{RPCURLs: rpcs, ExplorerURL: "http://explorer", CheckpointPath: watchCP})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := NewBackfill(det, BackfillConfig{RPCURLs: rpcs, ExplorerURL: "http://explorer", From: 100, To: 300, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	txCP := filepath.Join(dir, "tx.cursor")
	if err := os.WriteFile(txCP, []byte(`{"version":1,"cursor":7,"model_version":"v-tx","modality":"tx"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fused, err := NewFusedTxScorer(det, det)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := NewTxWatcher(fused, TxWatcherConfig{RPCURLs: rpcs, CheckpointPath: txCP})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRetrainer(RetrainerConfig{Train: func(context.Context, DriftReport) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	detector = NewScoreHandler(det, WithWatcher(w), WithBackfill(bf), WithTxWatcher(tw), WithRetrainer(rt))

	sw := NewSwappable("v1", det)
	if err := sw.SetChallenger("v2", det); err != nil {
		t.Fatal(err)
	}
	return detector, NewScoreHandler(sw)
}

// TestMetricsExpositionGolden pins the replica's and the router's /metrics
// bytes, uptime samples masked, so a change to how the exposition is
// written cannot change what a scraper reads.
func TestMetricsExpositionGolden(t *testing.T) {
	detector, swappable := replicaMetricsHandlers(t)
	checkGolden(t, "metrics_replica.golden", scrapeMetrics(t, detector)+scrapeMetrics(t, swappable))

	// NewClusterRouter does not dial, so the keyspace split over two fixed
	// names is deterministic.
	rt, err := NewClusterRouter(ClusterConfig{Replicas: []string{"http://replica-a", "http://replica-b"}})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_router.golden", scrapeMetrics(t, rt.Handler()))
}

package phishinghook

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/monitor"
)

// clusterBackend is a fake ScoreBackend that records which bytecodes it
// scored — the routing oracle: verdicts carry the backend's name so tests
// can see exactly which replica served each code.
type clusterBackend struct {
	name  string
	delay time.Duration

	mu     sync.Mutex
	counts map[[32]byte]int
	scored atomic.Uint64
}

func newClusterBackend(name string) *clusterBackend {
	return &clusterBackend{name: name, counts: make(map[[32]byte]int)}
}

func (b *clusterBackend) ScoreBatch(ctx context.Context, codes [][]byte) ([]Verdict, error) {
	if b.delay > 0 {
		select {
		case <-time.After(b.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	out := make([]Verdict, len(codes))
	b.mu.Lock()
	for i, code := range codes {
		b.counts[sha256.Sum256(code)]++
		out[i] = Verdict{Label: Benign, Confidence: 0.9, ModelName: b.name, ModelVersion: "v1"}
	}
	b.mu.Unlock()
	b.scored.Add(uint64(len(codes)))
	return out, nil
}

func (b *clusterBackend) ModelName() string  { return b.name }
func (b *clusterBackend) FeatureDim() int    { return 1 }
func (b *clusterBackend) ScoreCount() uint64 { return b.scored.Load() }
func (b *clusterBackend) CacheStats() (uint64, uint64) {
	return 0, 0
}

func (b *clusterBackend) countOf(code []byte) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts[sha256.Sum256(code)]
}

// startCluster spins up n fake replicas and a router over them.
func startCluster(t *testing.T, n int, cfg ClusterConfig) (*httptest.Server, *ClusterRouter, []*clusterBackend, []*httptest.Server) {
	t.Helper()
	backends := make([]*clusterBackend, n)
	replicas := make([]*httptest.Server, n)
	for i := range backends {
		backends[i] = newClusterBackend(fmt.Sprintf("replica-%d", i))
		replicas[i] = httptest.NewServer(NewScoreHandler(backends[i], WithClusterRole("replica")))
		t.Cleanup(replicas[i].Close)
		cfg.Replicas = append(cfg.Replicas, replicas[i].URL)
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = 5 * time.Millisecond
	}
	rt, err := NewClusterRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return front, rt, backends, replicas
}

func clusterCodes(n int) [][]byte {
	codes := make([][]byte, n)
	for i := range codes {
		codes[i] = []byte(fmt.Sprintf("\x60\x60bytecode-%03d", i))
	}
	return codes
}

// TestClusterRoutingExactlyOncePerReplica checks the tentpole property: the
// router partitions unique bytecodes across replicas (each code scored by
// exactly one), attribution is stable across repeated requests, and the
// wire format matches a single replica's /score byte for byte.
func TestClusterRoutingExactlyOncePerReplica(t *testing.T) {
	front, rt, backends, _ := startCluster(t, 3, ClusterConfig{})
	codes := clusterCodes(60)
	req := ScoreRequest{}
	for _, c := range codes {
		req.Bytecodes = append(req.Bytecodes, EncodeHex(c))
	}
	resp, out := postScore(t, front.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Verdicts) != len(codes) {
		t.Fatalf("got %d verdicts, want %d", len(out.Verdicts), len(codes))
	}
	if out.Verdict != nil {
		t.Fatal("batch response should not set the single verdict field")
	}

	// Every code scored exactly once, cluster-wide.
	perReplica := make([]int, len(backends))
	for i, code := range codes {
		total := 0
		for j, b := range backends {
			c := b.countOf(code)
			total += c
			perReplica[j] += c
		}
		if total != 1 {
			t.Fatalf("code %d scored %d times across the cluster, want exactly 1", i, total)
		}
	}
	// The hash should have spread work over more than one replica.
	busy := 0
	for _, c := range perReplica {
		if c > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("all codes landed on %d replica(s); consistent hashing should spread them", busy)
	}

	// A second identical batch must route every code to the same replica
	// (verdict.Model carries the replica name).
	_, again := postScore(t, front.URL, req)
	for i := range codes {
		if again.Verdicts[i].Model != out.Verdicts[i].Model {
			t.Fatalf("code %d moved from %s to %s between identical requests",
				i, out.Verdicts[i].Model, again.Verdicts[i].Model)
		}
	}
	if rehash := rt.Stats().Rehashes; rehash != 0 {
		t.Fatalf("healthy cluster rehashed %d sub-batches, want 0", rehash)
	}

	// Single-bytecode form mirrors the replica wire contract.
	resp, single := postScore(t, front.URL, ScoreRequest{Bytecode: EncodeHex(codes[0])})
	if resp.StatusCode != http.StatusOK || single.Verdict == nil || len(single.Verdicts) != 1 {
		t.Fatalf("single-code routing broken: status %d, %+v", resp.StatusCode, single)
	}
}

// TestClusterRouterEndpoints covers the router's observability surface:
// /healthz reports the router role and ring, /readyz answers 200, /metrics
// exposes the phishinghook_cluster_* series.
func TestClusterRouterEndpoints(t *testing.T) {
	front, _, _, _ := startCluster(t, 2, ClusterConfig{})
	var health struct {
		Role     string   `json:"role"`
		Replicas []string `json:"replicas"`
	}
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Role != "router" || len(health.Replicas) != 2 {
		t.Fatalf("healthz = %+v, want role=router with 2 replicas", health)
	}
	if resp, err = http.Get(front.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("router /readyz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	blob, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"phishinghook_cluster_replicas 2",
		"phishinghook_cluster_requests_total",
		"phishinghook_cluster_replica_health{replica=",
		"phishinghook_cluster_ring_keyspace_fraction{replica=",
	} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
}

// TestClusterReplicaDeathFailover kills one replica and checks the router
// degrades gracefully: every score still succeeds by rehashing to the dead
// replica's ring neighbors.
func TestClusterReplicaDeathFailover(t *testing.T) {
	front, rt, backends, replicas := startCluster(t, 3, ClusterConfig{})
	codes := clusterCodes(60)
	req := ScoreRequest{}
	for _, c := range codes {
		req.Bytecodes = append(req.Bytecodes, EncodeHex(c))
	}
	// Warm pass: find a replica that owns some keys, then kill it.
	resp, _ := postScore(t, front.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm pass status %d", resp.StatusCode)
	}
	victim := -1
	for i, b := range backends {
		if b.scored.Load() > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no replica scored anything in the warm pass")
	}
	replicas[victim].Close()

	resp, out := postScore(t, front.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-kill status %d — a dead replica must rehash, not fail scores", resp.StatusCode)
	}
	if len(out.Verdicts) != len(codes) {
		t.Fatalf("post-kill got %d verdicts, want %d", len(out.Verdicts), len(codes))
	}
	for i, v := range out.Verdicts {
		if v.Model == backends[victim].name {
			t.Fatalf("verdict %d attributed to the dead replica %s", i, v.Model)
		}
	}
	s := rt.Stats()
	if s.Rehashes == 0 {
		t.Fatal("no rehashes recorded after killing a key-owning replica")
	}
	if s.Errors != 0 {
		t.Fatalf("router recorded %d failed sub-batches; neighborhood failover should absorb the kill", s.Errors)
	}
}

// TestClusterOverloadRetryAfter floods a router with a tiny admission queue
// and checks overload surfaces as 429 with a jittered fractional-seconds
// Retry-After — the typed signal ethrpc clients already parse — never as an
// undifferentiated 503.
func TestClusterOverloadRetryAfter(t *testing.T) {
	front, _, backends, _ := startCluster(t, 2, ClusterConfig{MaxPending: 2})
	for _, b := range backends {
		b.delay = 100 * time.Millisecond
	}
	codes := clusterCodes(12)
	var wg sync.WaitGroup
	var ok, rejected atomic.Int64
	retryAfters := make(chan string, len(codes))
	for _, c := range codes {
		wg.Add(1)
		go func(code []byte) {
			defer wg.Done()
			body, _ := json.Marshal(ScoreRequest{Bytecode: EncodeHex(code)})
			resp, err := http.Post(front.URL+"/score", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				rejected.Add(1)
				retryAfters <- resp.Header.Get("Retry-After")
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()
	close(retryAfters)
	if ok.Load() == 0 {
		t.Fatal("no request was admitted")
	}
	if rejected.Load() == 0 {
		t.Fatal("flooding a MaxPending=2 router rejected nothing")
	}
	frac := regexp.MustCompile(`^0\.\d{3}$`)
	for ra := range retryAfters {
		if !frac.MatchString(ra) {
			t.Fatalf("Retry-After %q is not fractional seconds", ra)
		}
		d := ethrpc.ParseRetryAfter(ra)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("Retry-After %q parsed to %v, want jitter in [50ms, 150ms]", ra, d)
		}
	}
}

// clusterTxBackend is a fake TxScorer that records which callee codes it
// judged; verdicts carry the replica name so tests can see routing.
type clusterTxBackend struct {
	name   string
	mu     sync.Mutex
	counts map[[32]byte]int
}

func newClusterTxBackend(name string) *clusterTxBackend {
	return &clusterTxBackend{name: name, counts: make(map[[32]byte]int)}
}

func (b *clusterTxBackend) ScoreTx(ctx context.Context, calldata, code []byte) (TxVerdict, error) {
	b.mu.Lock()
	b.counts[sha256.Sum256(code)]++
	b.mu.Unlock()
	v := TxVerdict{Verdict: Verdict{Label: Benign, Confidence: 0.2, ModelName: b.name, ModelVersion: "v1"}, PayloadProb: 0.2}
	if len(calldata) > 0 && calldata[len(calldata)-1]%2 == 0 {
		v.Label, v.Confidence, v.PayloadProb = Phishing, 0.9, 0.9
	}
	return v, nil
}

func (b *clusterTxBackend) countOf(code []byte) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts[sha256.Sum256(code)]
}

// TestClusterTxRoutingShardsByCalleeCode checks the transaction face of the
// router: /score/tx shards by the callee bytecode's SHA-256 — the same key
// /score shards by — so every tx lands on the replica whose code-side cache
// its callee warmed, contract and tx traffic for one contract colocate, and
// the fused wire fields survive the RemoteScorer round trip.
func TestClusterTxRoutingShardsByCalleeCode(t *testing.T) {
	const n = 3
	backends := make([]*clusterBackend, n)
	txBackends := make([]*clusterTxBackend, n)
	var cfg ClusterConfig
	for i := range backends {
		name := fmt.Sprintf("replica-%d", i)
		backends[i] = newClusterBackend(name)
		txBackends[i] = newClusterTxBackend(name)
		srv := httptest.NewServer(NewScoreHandler(backends[i],
			WithClusterRole("replica"), WithTxScorer(txBackends[i])))
		t.Cleanup(srv.Close)
		cfg.Replicas = append(cfg.Replicas, srv.URL)
	}
	cfg.Backoff = 5 * time.Millisecond
	rt, err := NewClusterRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	// 40 txs over 8 distinct callees (5 each), plus two EOA txs with no code.
	codes := clusterCodes(8)
	var items []ClusterTxScoreItem
	for i := 0; i < 40; i++ {
		items = append(items, ClusterTxScoreItem{
			Calldata: EncodeHex([]byte{0xa9, 0x05, 0x9c, 0xbb, byte(i)}),
			Code:     EncodeHex(codes[i%len(codes)]),
		})
	}
	items = append(items,
		ClusterTxScoreItem{Calldata: EncodeHex([]byte{0x01, 0x02})},
		ClusterTxScoreItem{Calldata: EncodeHex([]byte{0x01, 0x03})})

	client := NewClusterScoreClient(front.URL, WithScoreRetries(5, 10*time.Millisecond))
	vs, err := client.ScoreTxBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != len(items) {
		t.Fatalf("got %d verdicts for %d txs", len(vs), len(items))
	}
	for i, v := range vs {
		if v.Modality != "tx" {
			t.Fatalf("verdict %d modality %q, want tx", i, v.Modality)
		}
		if v.Model == "" {
			t.Fatalf("verdict %d lost its replica attribution", i)
		}
	}

	// Same callee ⇒ same replica, and the hash spread work over >1 replica.
	byCode := make(map[string]string)
	for i, v := range vs[:40] {
		if prev, ok := byCode[items[i].Code]; ok && prev != v.Model {
			t.Fatalf("callee %s split across %s and %s", items[i].Code, prev, v.Model)
		}
		byCode[items[i].Code] = v.Model
	}
	busy := make(map[string]bool)
	for _, m := range byCode {
		busy[m] = true
	}
	if len(busy) < 2 {
		t.Fatalf("all callees landed on %d replica(s); consistent hashing should spread them", len(busy))
	}
	// Each callee judged once per tx, all on one replica cluster-wide.
	for i, code := range codes {
		total := 0
		for _, b := range txBackends {
			total += b.countOf(code)
		}
		if total != 5 {
			t.Fatalf("callee %d judged %d times across the cluster, want 5 (one per tx)", i, total)
		}
	}

	// Tx sharding aligns with contract sharding: /score for the same
	// bytecode must land on the replica that judged its txs — that shared
	// key is what makes the code-side digest cache a cluster-wide property.
	req := ScoreRequest{}
	for _, c := range codes {
		req.Bytecodes = append(req.Bytecodes, EncodeHex(c))
	}
	_, out := postScore(t, front.URL, req)
	for i, c := range codes {
		if want := byCode[EncodeHex(c)]; out.Verdicts[i].Model != want {
			t.Fatalf("code %d scored on %s but its txs judged on %s", i, out.Verdicts[i].Model, want)
		}
	}
	if rehash := rt.Stats().Rehashes; rehash != 0 {
		t.Fatalf("healthy cluster rehashed %d sub-batches, want 0", rehash)
	}

	// RemoteScorer.ScoreTx: the fused wire fields survive the round trip,
	// so a TxWatcher can fuse through the cluster.
	rs := NewRemoteScorer(front.URL, WithScoreRetries(5, 10*time.Millisecond))
	v, err := rs.ScoreTx(context.Background(), []byte{0xa9, 0x02}, codes[0])
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsPhishing() || v.Confidence != 0.9 || v.PayloadProb != 0.9 || v.ModelName == "" || v.ModelVersion != "v1" {
		t.Fatalf("RemoteScorer.ScoreTx verdict %+v", v)
	}
}

// TestServerGracefulDrain checks the hardened server wrapper: once Shutdown
// begins, /readyz flips to 503 during the lame-duck window while accepted
// (and even new lame-duck) requests complete — a replica kill drops nothing.
func TestServerGracefulDrain(t *testing.T) {
	backend := newClusterBackend("drainee")
	backend.delay = 150 * time.Millisecond
	srv := NewServer("127.0.0.1:0", NewScoreHandler(backend, WithClusterRole("replica")))
	srv.LameDuck = 300 * time.Millisecond
	if _, err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	if resp, err := http.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain /readyz: %v %v", resp, err)
	}

	// A slow score in flight when the drain starts...
	scored := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(ScoreRequest{Bytecode: EncodeHex([]byte{0x60, 0x01})})
		resp, err := http.Post(base+"/score", "application/json", bytes.NewReader(body))
		if err != nil {
			scored <- -1
			return
		}
		resp.Body.Close()
		scored <- resp.StatusCode
	}()
	time.Sleep(30 * time.Millisecond)
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()

	// ...and during the lame-duck window readiness fails while the
	// listener still answers.
	time.Sleep(50 * time.Millisecond)
	if !srv.Draining() {
		t.Fatal("server not draining after Shutdown began")
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("lame-duck /readyz unreachable: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("lame-duck /readyz status %d, want 503", resp.StatusCode)
	}

	if code := <-scored; code != http.StatusOK {
		t.Fatalf("in-flight score got %d during drain, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestReadyzTracksBackendState checks a replica's /readyz is distinct from
// liveness: unready while the lifecycle handle is empty, ready once a
// champion deploys, and role-labeled throughout.
func TestReadyzTracksBackendState(t *testing.T) {
	sw := NewSwappable("", nil)
	t.Cleanup(sw.Close)
	srv := httptest.NewServer(NewScoreHandler(sw, WithClusterRole("replica")))
	t.Cleanup(srv.Close)

	get := func() (int, map[string]any) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}
	status, body := get()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("empty handle /readyz = %d, want 503", status)
	}
	if body["role"] != "replica" {
		t.Fatalf("readyz role = %v, want replica", body["role"])
	}

	ds, _ := testCorpus(t)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, ds, WithDetectorSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	sw.Swap("v0001", det)
	if status, _ := get(); status != http.StatusOK {
		t.Fatalf("deployed handle /readyz = %d, want 200", status)
	}
}

// startLifecycleReplicas builds n replicas sharing one on-disk model store
// (champion v0001 deployed, v0002 installed as challenger) — the
// configuration a rolling promote operates on.
func startLifecycleReplicas(t *testing.T, n int) ([]*Lifecycle, []string) {
	t.Helper()
	dir := t.TempDir()
	d1, d2 := trainPair(t)
	seed, err := OpenModelStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	lcSeed, err := NewLifecycle(seed)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := lcSeed.SaveVersion(d1, ModelMeta{TrainFrom: 0, TrainTo: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := lcSeed.Deploy(v1.ID); err != nil {
		t.Fatal(err)
	}
	v2, err := lcSeed.SaveVersion(d2, ModelMeta{TrainFrom: 0, TrainTo: 12, Parent: v1.ID})
	if err != nil {
		t.Fatal(err)
	}
	if err := lcSeed.Shadow(v2.ID); err != nil {
		t.Fatal(err)
	}
	lcSeed.Handle().Close()

	lcs := make([]*Lifecycle, n)
	urls := make([]string, n)
	for i := range lcs {
		store, err := OpenModelStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		lc, err := NewLifecycle(store)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(lc.Handle().Close)
		srv := httptest.NewServer(NewScoreHandler(lc.Handle(), WithLifecycle(lc), WithClusterRole("replica")))
		t.Cleanup(srv.Close)
		lcs[i] = lc
		urls[i] = srv.URL
	}
	return lcs, urls
}

// TestClusterRollingPromoteUnderLoad runs the full rolling-promote protocol
// while score traffic hammers the router (run under -race in CI): zero
// requests may fail or drop, every verdict must be attributed to exactly
// the old or the new champion version, and all replicas must converge on
// the new champion.
func TestClusterRollingPromoteUnderLoad(t *testing.T) {
	lcs, urls := startLifecycleReplicas(t, 3)
	rt, err := NewClusterRouter(ClusterConfig{Replicas: urls, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	ds, _ := testCorpus(t)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scoredOK, badVersion atomic.Int64
	errCh := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := ds.Samples[(g*31+i)%ds.Len()]
				body, _ := json.Marshal(ScoreRequest{Bytecode: EncodeHex(s.Bytecode)})
				resp, err := http.Post(front.URL+"/score", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				var out ScoreResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("score during rolling promote: status %d", resp.StatusCode)
					return
				}
				if decErr != nil || out.Verdict == nil {
					errCh <- fmt.Errorf("torn score response: %v", decErr)
					return
				}
				switch out.Verdict.ModelVersion {
				case "v0001", "v0002":
					scoredOK.Add(1)
				default:
					badVersion.Add(1)
					errCh <- fmt.Errorf("verdict attributed to unknown version %q", out.Verdict.ModelVersion)
					return
				}
			}
		}(g)
	}

	// Let traffic establish, then roll the promote across the ring.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	steps, err := rt.RollingPromote(ctx)
	if err != nil {
		t.Fatalf("RollingPromote: %v (steps: %+v)", err, steps)
	}
	if len(steps) != 3 || steps[0].Action != "promote" || steps[1].Action != "reload" {
		t.Fatalf("unexpected rolling steps %+v", steps)
	}
	// Keep load going a moment after the roll, then stop.
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if scoredOK.Load() == 0 {
		t.Fatal("no scores flowed during the rolling promote")
	}
	if badVersion.Load() != 0 {
		t.Fatalf("%d verdicts misattributed", badVersion.Load())
	}
	for i, lc := range lcs {
		if champ, _ := lc.Handle().Champion(); champ != "v0002" {
			t.Fatalf("replica %d champion = %q after rolling promote, want v0002", i, champ)
		}
	}
	// The promoted challenger slot must be empty everywhere.
	for i, st := range rt.Survey(ctx) {
		if st.Error != "" || !st.Ready || st.Champion != "v0002" || st.Challenger != "" {
			t.Fatalf("survey[%d] = %+v, want ready v0002 with no challenger", i, st)
		}
	}
}

// TestWatchThroughClusterReplicaKill points a Watchtower watcher at the
// router and kills a replica mid-stream: exactly-once alerting must be
// preserved across the kill (the router rehashes the dead replica's keys to
// its ring neighbors; the watcher never sees a failed score).
func TestWatchThroughClusterReplicaKill(t *testing.T) {
	sim := startSim(t, 29)
	if err := sim.GoLive(10); err != nil {
		t.Fatal(err)
	}
	start, tail := sim.HeadBlock(), sim.TailBlock()
	mid := (start + tail) / 2

	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, sim.Dataset(), WithDetectorSeed(3))
	if err != nil {
		t.Fatal(err)
	}

	// Three replicas serving the same trained model, fronted by the router.
	replicas := make([]*httptest.Server, 3)
	urls := make([]string, 3)
	for i := range replicas {
		replicas[i] = httptest.NewServer(NewScoreHandler(det, WithClusterRole("replica")))
		t.Cleanup(replicas[i].Close)
		urls[i] = replicas[i].URL
	}
	rt, err := NewClusterRouter(ClusterConfig{Replicas: urls, Backoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	scorer := &countingScorer{
		inner:  NewRemoteScorer(front.URL, WithScoreRetries(5, 10*time.Millisecond)),
		counts: make(map[[32]byte]int),
	}
	var alertMu sync.Mutex
	var alerts []Alert
	w, err := monitor.New(scorer, monitor.Config{
		RPCURL:         sim.RPCURL(),
		ExplorerURL:    sim.ExplorerURL(),
		PollInterval:   time.Millisecond,
		StartBlock:     start,
		StopAtBlock:    tail,
		CheckpointPath: filepath.Join(t.TempDir(), "cursor.json"),
		Threshold:      0.6,
		Sinks: []monitor.Sink{NewFuncSink(func(a Alert) error {
			alertMu.Lock()
			alerts = append(alerts, a)
			alertMu.Unlock()
			return nil
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	// First half of the window with all replicas up...
	sim.AdvanceBlocks(mid - sim.HeadBlock())
	waitForCursor(t, w, mid)
	// ...then a replica dies mid-stream and the rest of the window streams
	// through the degraded cluster.
	replicas[1].Close()
	sim.AdvanceBlocks(tail - sim.HeadBlock())
	if err := <-done; err != nil {
		t.Fatalf("watcher through degraded cluster: %v", err)
	}

	s := w.Stats()
	if s.Cursor != tail {
		t.Fatalf("cursor = %d, want tail %d", s.Cursor, tail)
	}
	if s.Poisoned != 0 {
		t.Fatalf("%d bytecodes abandoned — score failures leaked through the router's failover", s.Poisoned)
	}
	// Exactly-once: the replica kill must not have caused any re-scores.
	if got := scorer.maxCount(); got != 1 {
		t.Fatalf("a bytecode was scored %d times across the kill, want exactly once", got)
	}
	unique := map[[32]byte]bool{}
	for _, ct := range sim.chain.ContractsInRange(start+1, tail) {
		unique[sha256.Sum256(ct.Code)] = true
	}
	if int(s.ContractsScored) != len(unique) {
		t.Fatalf("scored %d unique bytecodes, window holds %d", s.ContractsScored, len(unique))
	}

	// Alerting stayed exactly-once and precise across the kill.
	alertMu.Lock()
	defer alertMu.Unlock()
	if len(alerts) == 0 {
		t.Fatal("no alerts for a window with planted phishing contracts")
	}
	seen := map[string]bool{}
	for _, a := range alerts {
		if seen[a.Address] {
			t.Fatalf("address %s alerted twice across the replica kill", a.Address)
		}
		seen[a.Address] = true
	}
	truePos := 0
	for _, a := range alerts {
		if phishing, ok := sim.GroundTruth(a.Address); ok && phishing {
			truePos++
		}
	}
	if truePos*2 < len(alerts) {
		t.Errorf("alert precision %d/%d below 50%%", truePos, len(alerts))
	}
}

// tokenBucket is a blocking rate limiter: Wait returns once n tokens are
// available, modelling a replica's scoring capacity without an error path.
// It starts full (tokens == burst).
type tokenBucket struct {
	mu                  sync.Mutex
	rate, burst, tokens float64
	last                time.Time
}

func (tb *tokenBucket) Wait(ctx context.Context, n float64) error {
	for {
		tb.mu.Lock()
		now := time.Now()
		tb.tokens = math.Min(tb.burst, tb.tokens+now.Sub(tb.last).Seconds()*tb.rate)
		tb.last = now
		if tb.tokens >= n {
			tb.tokens -= n
			tb.mu.Unlock()
			return nil
		}
		need := time.Duration((n - tb.tokens) / tb.rate * float64(time.Second))
		tb.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(need):
		}
	}
}

// limitedBackend throttles a detector to its bucket's scoring rate.
type limitedBackend struct {
	*Detector
	bucket *tokenBucket
}

func (b *limitedBackend) ScoreBatch(ctx context.Context, codes [][]byte) ([]Verdict, error) {
	if err := b.bucket.Wait(ctx, float64(len(codes))); err != nil {
		return nil, err
	}
	return b.Detector.ScoreBatch(ctx, codes)
}

// TestRouterScalesAcrossReplicas gates the scoring cluster's scale-out over
// replicas limited to 400 scores/s (burst 64) each: 16 clients routing 400
// unique bytecodes three times over, in batches of 64, get at least 3x the
// throughput from 4 replicas as from one. Every round also checks that the
// cluster-wide cache hit rate stays within 0.01 of the single replica's:
// consistent hashing gives each unique bytecode one cold miss cluster-wide,
// where spraying over 4 replicas would quadruple the misses.
func TestRouterScalesAcrossReplicas(t *testing.T) {
	sim, det := quotaFixture(t, 400, 0)
	var blob bytes.Buffer
	if err := det.Save(&blob); err != nil {
		t.Fatal(err)
	}
	unique := sim.RawDataset().Samples
	unique = unique[:min(len(unique), 400)]
	var workload [][]byte
	for r := 0; r < 3; r++ {
		for _, s := range unique {
			workload = append(workload, s.Bytecode)
		}
	}
	// measure routes the workload over n freshly loaded replicas, each with
	// its own cold cache as in a cluster of processes, and returns scores/s
	// and the cluster-wide cache hit rate.
	measure := func(n int) (rate, hitRate float64) {
		backends := make([]*limitedBackend, n)
		var urls []string
		for i := range backends {
			d, err := LoadDetector(bytes.NewReader(blob.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			backends[i] = &limitedBackend{Detector: d, bucket: &tokenBucket{rate: 400, burst: 64, tokens: 64, last: time.Now()}}
			srv := httptest.NewServer(NewScoreHandler(backends[i], WithClusterRole("replica")))
			defer srv.Close()
			urls = append(urls, srv.URL)
		}
		rt, err := NewClusterRouter(ClusterConfig{Replicas: urls})
		if err != nil {
			t.Fatal(err)
		}
		batches := make(chan [][]byte, len(workload)/64+1)
		for i := 0; i < len(workload); i += 64 {
			batches <- workload[i:min(i+64, len(workload))]
		}
		close(batches)
		t0 := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for c := 0; c < 16; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for batch := range batches {
					if _, err := rt.RouteBatch(context.Background(), batch); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		rate = float64(len(workload)) / time.Since(t0).Seconds()
		var hits, misses uint64
		for _, b := range backends {
			h, m := b.CacheStats()
			hits, misses = hits+h, misses+m
		}
		return rate, float64(hits) / float64(hits+misses)
	}
	bestOfRounds(t, 3.0, func() float64 {
		one, oneHit := measure(1)
		four, fourHit := measure(4)
		t.Logf("cache hit rate: 1 replica %.3f, 4 replicas %.3f", oneHit, fourHit)
		if fourHit < oneHit-0.01 {
			t.Fatalf("cluster-wide cache hit rate %.3f fell more than 0.01 below one replica's %.3f", fourHit, oneHit)
		}
		return four / one
	})
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	ph "github.com/phishinghook/phishinghook"
)

// sample is one request's timing. In an open loop latency runs from the
// request's due time, so a stall delays, and is charged to, every request
// queued behind it; lag is how late the request left; rtt runs from the
// actual send. pos places the request within the run, in [0, 1); items
// counts the verdicts of a batch request.
type sample struct {
	lag, latency, rtt time.Duration
	pos               float64
	items             int
	ok                bool
}

// openLoop sends n requests on sched from clients goroutines (request i on
// goroutine i mod clients). send reports whether the answer was correct.
func openLoop(sched schedule, n, clients int, send func(client, i int) bool) []sample {
	out := make([]sample, n)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				due := sched.due(i)
				sleepUntil(due)
				sent := time.Now()
				ok := send(c, i)
				done := time.Now()
				out[i] = sample{lag: sent.Sub(due), latency: done.Sub(due), rtt: done.Sub(sent), pos: float64(i) / float64(n), ok: ok}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// httpClients returns one single-connection client per load goroutine.
func httpClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// postScore sends one /score request and decodes the verdicts.
func postScore(c *http.Client, url string, body []byte) ([]ph.ScoreVerdict, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var sr ph.ScoreResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, err
	}
	return sr.Verdicts, nil
}

// sameVerdict reports whether a served verdict equals the reference's.
func sameVerdict(got ph.ScoreVerdict, want ph.Verdict) bool {
	return got.Phishing == want.IsPhishing() && got.Confidence == want.Confidence
}

// scoreSystem is a set of HTTP servers built by one set-up.
type scoreSystem struct {
	det     trained
	servers []*httptest.Server
	dets    []*ph.Detector
	router  *ph.ClusterRouter
	url     string
}

func (s *scoreSystem) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
}

// replica serves one freshly loaded detector.
func (s *scoreSystem) replica(tr *tracer, opts ...ph.ServeOption) (string, error) {
	d, err := s.det.load()
	if err != nil {
		return "", err
	}
	s.dets = append(s.dets, d)
	srv := httptest.NewServer(tr.handler("serve.handle", ph.NewScoreHandler(tr.backend(d), opts...)))
	s.servers = append(s.servers, srv)
	return srv.URL, nil
}

// runScoreRouted is wallet-facing traffic: single-bytecode POST /score
// requests at a fixed rate through a cluster router onto two replicas, each
// serving its own loaded Random Forest. Bytecodes are drawn Zipf(1.1) over
// all distinct bytecodes, more than one detector cache holds.
func runScoreRouted(cfg config, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	perm := rng.Perm(len(w.uniques))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(w.uniques)-1))
	n := int(cfg.Rate * cfg.Window.Seconds())
	pick := make([]int, n)
	bodies := map[int][]byte{}
	for i := range pick {
		pick[i] = perm[zipf.Uint64()]
		if _, ok := bodies[pick[i]]; !ok {
			bodies[pick[i]], _ = json.Marshal(ph.ScoreRequest{Bytecode: ph.EncodeHex(w.uniques[pick[i]])})
		}
	}

	heap := liveHeapAfterGC()
	sys := &scoreSystem{}
	defer func() { sys.close() }()
	m.e2e["setup_s"], err = setupSeconds(cfg.SetupRepeats, func() error {
		sys.close()
		sys = &scoreSystem{}
		var err error
		if sys.det, err = train(modelSpec("Random Forest"), w.codeDS, cfg.Seed, nil, false); err != nil {
			return err
		}
		urls := make([]string, clients)
		for i := range urls {
			if urls[i], err = sys.replica(tr, ph.WithClusterRole("replica")); err != nil {
				return err
			}
		}
		if sys.router, err = ph.NewClusterRouter(ph.ClusterConfig{Replicas: urls}); err != nil {
			return err
		}
		srv := httptest.NewServer(tr.handler("cluster.route", sys.router.Handler()))
		sys.servers = append(sys.servers, srv)
		sys.url = srv.URL + "/score"
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The reference is a separately loaded detector with its own cache.
	ref, err := sys.det.load()
	if err != nil {
		return nil, err
	}
	want := map[int]ph.Verdict{}
	for idx := range bodies {
		if want[idx], err = ref.Score(context.Background(), w.uniques[idx]); err != nil {
			return nil, err
		}
	}

	hc := httpClients(clients)
	defer closeClients(hc)
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	sched := schedule{start: time.Now().Add(10 * time.Millisecond), interval: interval}
	samples := openLoop(sched, n, clients, func(c, i int) bool {
		vs, err := postScore(hc[c], sys.url, bodies[pick[i]])
		return err == nil && len(vs) == 1 && sameVerdict(vs[0], want[pick[i]])
	})
	m.e2e["mem_retained_mb"] = retainedMB(heap)
	// The inputs were built before the baseline and must still count.
	runtime.KeepAlive(bodies)
	runtime.KeepAlive(pick)
	m.requestMetrics(samples)
	var last time.Duration
	answered := 0
	for i, s := range samples {
		if done := sched.due(i).Sub(sched.start) + s.latency; done > last {
			last = done
		}
		if s.ok {
			answered++
		}
	}
	m.e2e["throughput_per_s"] = float64(answered) / last.Seconds()
	if tr == nil {
		return m, nil
	}
	m.serveLayers(tr.byName(), rtts(samples))
	rs := sys.router.Stats()
	m.layer["cluster.rehashes"] = float64(rs.Rehashes)
	m.layer["cluster.rejected"] = float64(rs.Rejected)
	m.layer["cluster.errored"] = float64(rs.Errors)
	m.layer["lru.hit_ratio"] = cacheHitRatio(sys.dets...)
	distinct := make([][]byte, 0, len(bodies))
	for idx := range bodies {
		distinct = append(distinct, w.uniques[idx])
	}
	return m, m.replayStages(context.Background(), sys.det, w.codeDS, firstN(distinct, cfg.Replay), ref)
}

// requestMetrics reports request latency, generator lag and failed
// requests.
func (m *measurement) requestMetrics(samples []sample) {
	pts := make([]point, len(samples))
	lag := make([]time.Duration, len(samples))
	failed := 0
	for i, s := range samples {
		pts[i] = point{pos: s.pos, ms: float64(s.latency) / float64(time.Millisecond)}
		lag[i] = s.lag
		if !s.ok {
			failed++
		}
	}
	m.attempted += int64(len(samples))
	m.fail(failed, "requests failed or answered with a verdict that differs from the reference")
	m.latency("request latency", pts)
	m.generatorLag(lag)
}

// sliceRates returns the verdicts per second in each of the run's slices. A
// request's verdicts are spread evenly over the time it was in flight: a
// slice a few 32-verdict requests complete in would otherwise read a whole
// request more or less than its neighbours. Each sample's pos holds its
// completion offset from the start of the run, in nanoseconds.
func sliceRates(samples []sample, elapsed time.Duration) []float64 {
	width := float64(elapsed) / slices
	rates := make([]float64, slices)
	for _, s := range samples {
		if s.items == 0 || s.latency <= 0 {
			continue
		}
		done := s.pos
		sent := done - float64(s.latency)
		perNs := float64(s.items) / float64(s.latency)
		for k := range rates {
			lo, hi := float64(k)*width, float64(k+1)*width
			if overlap := min(hi, done) - max(lo, sent); overlap > 0 {
				rates[k] += perNs * overlap / (width / float64(time.Second))
			}
		}
	}
	return rates
}

func rtts(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.rtt
	}
	return out
}

// runBatchDeep is offline bulk scoring on a deep model: two closed-loop
// clients POST DeepBatch bytecodes per request straight to one replica
// serving GPT-2α. Bytecodes cycle through every distinct bytecode, more
// than the detector cache holds, so every item is featurized and inferred.
func runBatchDeep(cfg config, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	trainSet := w.codeDS.Shuffle(rand.New(rand.NewSource(cfg.Seed + 13)))
	trainSet.Samples = firstN(trainSet.Samples, cfg.DeepTrain)
	hexes := make([]string, len(w.uniques))
	for i, c := range w.uniques {
		hexes[i] = ph.EncodeHex(c)
	}

	heap := liveHeapAfterGC()
	sys := &scoreSystem{}
	defer func() { sys.close() }()
	m.e2e["setup_s"], err = setupSeconds(cfg.SetupRepeats, func() error {
		sys.close()
		sys = &scoreSystem{}
		var err error
		if sys.det, err = train(modelSpec("GPT-2α"), trainSet, cfg.Seed, &cfg.Deep, false); err != nil {
			return err
		}
		url, err := sys.replica(tr)
		sys.url = url + "/score"
		return err
	})
	if err != nil {
		return nil, err
	}

	hc := httpClients(clients)
	defer closeClients(hc)
	var next atomic.Int64
	var mu sync.Mutex
	var samples []sample
	checked := map[int]ph.ScoreVerdict{}
	start := time.Now()
	deadline := start.Add(cfg.Window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				idx := make([]int, cfg.DeepBatch)
				req := ph.ScoreRequest{Bytecodes: make([]string, cfg.DeepBatch)}
				for j := range idx {
					idx[j] = (k*cfg.DeepBatch + j) % len(hexes)
					req.Bytecodes[j] = hexes[idx[j]]
				}
				body, _ := json.Marshal(req)
				sent := time.Now()
				vs, err := postScore(hc[c], sys.url, body)
				done := time.Now()
				ok := err == nil && len(vs) == len(idx)
				mu.Lock()
				// pos holds the completion offset until the window's end is known.
				s := sample{latency: done.Sub(sent), rtt: done.Sub(sent), pos: float64(done.Sub(start)), ok: ok}
				if ok {
					s.items = len(vs)
					for j, v := range vs {
						if idx[j] < cfg.DeepCheck {
							checked[idx[j]] = v
						}
					}
				}
				samples = append(samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	m.e2e["mem_retained_mb"] = retainedMB(heap)
	// The inputs were built before the baseline and must still count.
	runtime.KeepAlive(hexes)
	m.e2e["throughput_per_s"] = bestQuarter(sliceRates(samples, elapsed), false)
	total := 0
	for i := range samples {
		samples[i].pos /= float64(elapsed)
		total += samples[i].items
	}
	m.requestMetrics(samples)

	// The reference re-scores the first DeepCheck distinct bytecodes on a
	// separately loaded detector.
	ref, err := sys.det.load()
	if err != nil {
		return nil, err
	}
	codes := firstN(w.uniques, cfg.DeepCheck)
	want, err := ref.ScoreBatch(context.Background(), codes)
	if err != nil {
		return nil, err
	}
	wrong := 0
	for i, v := range want {
		if got, ok := checked[i]; !ok || !sameVerdict(got, v) {
			wrong++
		}
	}
	m.attempted += int64(len(codes))
	m.fail(wrong, "GPT-2α verdicts that differ from the reference")
	m.note("batch-deep: %d bytecodes served in %d requests", total, len(samples))
	if tr == nil {
		return m, nil
	}
	m.serveLayers(tr.byName(), rtts(samples))
	m.layer["lru.hit_ratio"] = cacheHitRatio(sys.dets...)
	return m, m.replayStages(context.Background(), sys.det, trainSet, firstN(w.uniques, cfg.DeepReplay), ref)
}

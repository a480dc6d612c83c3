package phishinghook

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/phishinghook/phishinghook/internal/httpapi"
)

func testServer(t *testing.T) (*httptest.Server, *Dataset) {
	t.Helper()
	ds, _ := testCorpus(t)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, ds, WithDetectorSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewScoreHandler(det))
	t.Cleanup(srv.Close)
	return srv, ds
}

func postScore(t *testing.T, url string, req ScoreRequest) (*http.Response, ScoreResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ScoreResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestScoreHandlerSingle(t *testing.T) {
	srv, ds := testServer(t)
	resp, out := postScore(t, srv.URL, ScoreRequest{Bytecode: EncodeHex(ds.Samples[0].Bytecode)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Verdict == nil || len(out.Verdicts) != 1 {
		t.Fatalf("single request should return one verdict: %+v", out)
	}
	if out.Verdict.Model != "Random Forest" || out.Verdict.Confidence < 0.5 {
		t.Fatalf("implausible verdict %+v", out.Verdict)
	}
	if out.Verdict.Phishing != (out.Verdict.Label == "phishing") {
		t.Fatalf("phishing flag disagrees with label: %+v", out.Verdict)
	}
}

func TestScoreHandlerBatch(t *testing.T) {
	srv, ds := testServer(t)
	n := 32
	if ds.Len() < n {
		n = ds.Len()
	}
	req := ScoreRequest{}
	for _, s := range ds.Samples[:n] {
		req.Bytecodes = append(req.Bytecodes, EncodeHex(s.Bytecode))
	}
	resp, out := postScore(t, srv.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Verdicts) != n {
		t.Fatalf("got %d verdicts, want %d", len(out.Verdicts), n)
	}
	if out.Verdict != nil {
		t.Fatal("batch response should not set the single verdict field")
	}
}

func TestScoreHandlerConcurrentClients(t *testing.T) {
	srv, ds := testServer(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				s := ds.Samples[(g*10+i)%ds.Len()]
				body, _ := json.Marshal(ScoreRequest{Bytecode: EncodeHex(s.Bytecode)})
				resp, err := http.Post(srv.URL+"/score", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestScoreHandlerRejects(t *testing.T) {
	srv, _ := testServer(t)

	for _, tc := range []struct {
		name string
		req  ScoreRequest
		want int
	}{
		{"empty", ScoreRequest{}, http.StatusBadRequest},
		{"bad hex", ScoreRequest{Bytecode: "0xzz"}, http.StatusBadRequest},
		{"empty bytecode", ScoreRequest{Bytecodes: []string{"0x"}}, http.StatusBadRequest},
	} {
		resp, _ := postScore(t, srv.URL, tc.req)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	resp, err := http.Get(srv.URL + "/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /score: status %d", resp.StatusCode)
	}

	oversized := ScoreRequest{}
	for i := 0; i <= httpapi.MaxBatch; i++ {
		oversized.Bytecodes = append(oversized.Bytecodes, "0x60")
	}
	resp, _ = postScore(t, srv.URL, oversized)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" || body["model"] != "Random Forest" {
		t.Fatalf("unexpected healthz body: %v", body)
	}
}

func TestScoreHandlerSingleAndBatchTogether(t *testing.T) {
	// Documented semantics when both fields are set: verdicts covers
	// [bytecode, bytecodes...] and verdict points at the bytecode entry.
	srv, ds := testServer(t)
	req := ScoreRequest{
		Bytecode:  EncodeHex(ds.Samples[0].Bytecode),
		Bytecodes: []string{EncodeHex(ds.Samples[1].Bytecode), EncodeHex(ds.Samples[2].Bytecode)},
	}
	resp, out := postScore(t, srv.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Verdicts) != 3 {
		t.Fatalf("got %d verdicts, want 3 (single + batch)", len(out.Verdicts))
	}
	if out.Verdict == nil {
		t.Fatal("verdict must be set when the bytecode field is present")
	}
	if *out.Verdict != out.Verdicts[0] {
		t.Fatalf("verdict %+v should equal verdicts[0] %+v", *out.Verdict, out.Verdicts[0])
	}
}

func TestHealthzUptimeAndScores(t *testing.T) {
	srv, ds := testServer(t)
	if _, out := postScore(t, srv.URL, ScoreRequest{Bytecode: EncodeHex(ds.Samples[0].Bytecode)}); out.Verdict == nil {
		t.Fatal("warm-up score failed")
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if up, ok := body["uptime_seconds"].(float64); !ok || up < 0 {
		t.Errorf("healthz uptime_seconds = %v", body["uptime_seconds"])
	}
	if n, ok := body["scores"].(float64); !ok || n < 1 {
		t.Errorf("healthz scores = %v, want >= 1", body["scores"])
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, ds := testServer(t)
	postScore(t, srv.URL, ScoreRequest{Bytecode: EncodeHex(ds.Samples[0].Bytecode)})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, want := range []string{
		"# TYPE phishinghook_scores_total counter",
		"phishinghook_feature_cache_misses_total",
		"phishinghook_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "phishinghook_monitor_") {
		t.Error("monitor series exposed without an attached watcher")
	}
}

// testLifecycleServer serves a deployed champion through the lifecycle
// handle with the admin surface mounted.
func testLifecycleServer(t *testing.T) (*httptest.Server, *Lifecycle, *Dataset) {
	t.Helper()
	ds, _ := testCorpus(t)
	d1, d2 := trainPair(t)
	store, err := OpenModelStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	lc, err := NewLifecycle(store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Handle().Close)
	v1, err := lc.SaveVersion(d1, ModelMeta{TrainFrom: 0, TrainTo: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.Deploy(v1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.SaveVersion(d2, ModelMeta{TrainFrom: 0, TrainTo: 12, Parent: v1.ID}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewScoreHandler(lc.Handle(), WithLifecycle(lc)))
	t.Cleanup(srv.Close)
	return srv, lc, ds
}

// TestAdminLifecycleFlow drives the champion/challenger cycle over HTTP:
// versions lists the store, reload installs the manifest's challenger,
// promote flips it live — and /score verdicts carry the serving version
// throughout.
func TestAdminLifecycleFlow(t *testing.T) {
	srv, lc, ds := testLifecycleServer(t)

	getJSON := func(t *testing.T, method, path string, wantStatus int) map[string]any {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantStatus)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	// The store holds two versions; v0001 serves.
	body := getJSON(t, http.MethodGet, "/admin/versions", http.StatusOK)
	if body["champion"] != "v0001" {
		t.Fatalf("champion = %v", body["champion"])
	}
	if n := len(body["versions"].([]any)); n != 2 {
		t.Fatalf("listed %d versions, want 2", n)
	}
	_, out := postScore(t, srv.URL, ScoreRequest{Bytecode: EncodeHex(ds.Samples[0].Bytecode)})
	if out.Verdict.ModelVersion != "v0001" {
		t.Fatalf("verdict version %q, want v0001", out.Verdict.ModelVersion)
	}

	// Promote with no challenger is a conflict.
	getJSON(t, http.MethodPost, "/admin/promote", http.StatusConflict)

	// An out-of-band manifest edit (the retrain CLI) + reload installs the
	// challenger; promote then flips it.
	if err := lc.Store().SetChallenger("v0002"); err != nil {
		t.Fatal(err)
	}
	body = getJSON(t, http.MethodPost, "/admin/reload", http.StatusOK)
	if body["changed"] != true || body["challenger"] != "v0002" {
		t.Fatalf("reload reply %v", body)
	}
	body = getJSON(t, http.MethodPost, "/admin/promote", http.StatusOK)
	if body["promoted"] != "v0002" || body["champion"] != "v0002" {
		t.Fatalf("promote reply %v", body)
	}
	_, out = postScore(t, srv.URL, ScoreRequest{Bytecode: EncodeHex(ds.Samples[0].Bytecode)})
	if out.Verdict.ModelVersion != "v0002" {
		t.Fatalf("post-promote verdict version %q", out.Verdict.ModelVersion)
	}

	// Wrong methods are rejected.
	getJSON(t, http.MethodPost, "/admin/versions", http.StatusMethodNotAllowed)
	getJSON(t, http.MethodGet, "/admin/reload", http.StatusMethodNotAllowed)

	// The store manifest agrees with the live handle.
	champ, ok := lc.Store().Champion()
	if !ok || champ.ID != "v0002" {
		t.Fatalf("store champion %v ok=%v", champ, ok)
	}
}

// TestAdminEndpointsGated ensures the admin surface only exists with
// WithLifecycle, and that lifecycle metrics appear when serving a handle.
func TestAdminEndpointsGated(t *testing.T) {
	srv, _ := testServer(t) // plain detector handler
	resp, err := http.Get(srv.URL + "/admin/versions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ungated /admin/versions status %d, want 404", resp.StatusCode)
	}

	lcSrv, _, ds := testLifecycleServer(t)
	postScore(t, lcSrv.URL, ScoreRequest{Bytecode: EncodeHex(ds.Samples[0].Bytecode)})
	mresp, err := http.Get(lcSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	blob, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, want := range []string{
		`phishinghook_champion_info{version="v0001"} 1`,
		`phishinghook_version_scored_total{version="v0001"}`,
		"phishinghook_model_swaps_total",
		"phishinghook_shadow_compared_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("lifecycle metrics missing %q", want)
		}
	}
}

func TestPprofEndpointsGated(t *testing.T) {
	ds, _ := testCorpus(t)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		t.Fatal(err)
	}
	det, err := Train(spec, ds, WithDetectorSeed(2))
	if err != nil {
		t.Fatal(err)
	}

	// Default handler: profiling surface must not exist.
	off := httptest.NewServer(NewScoreHandler(det))
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without WithPprof: status %d, want 404", resp.StatusCode)
	}

	// WithPprof: index and cmdline respond.
	on := httptest.NewServer(NewScoreHandler(det, WithPprof()))
	defer on.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(on.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
	}
	// The score surface still works with profiling mounted.
	r, sr := postScore(t, on.URL, ScoreRequest{Bytecode: EncodeHex(ds.Samples[0].Bytecode)})
	if r.StatusCode != http.StatusOK || sr.Verdict == nil {
		t.Fatalf("score with pprof mounted: status %d verdict %v", r.StatusCode, sr.Verdict)
	}
}

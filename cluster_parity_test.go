package phishinghook

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/phishinghook/phishinghook/internal/cluster"
)

// parityCluster is two replicas serving one saved canonical detector with
// evasion telemetry plus a fused tx scorer, and a router in front of them.
// replica is the first replica's handler, called directly, and det and
// fused are the scorers behind it.
type parityCluster struct {
	replica, router http.Handler
	det             *Detector
	fused           TxScorer
	routerURL       string
	rt              *ClusterRouter
	codes           [][]byte // contract bytecodes whose verdicts carry telemetry
	calldata        []byte
}

func startParityCluster(tb testing.TB) *parityCluster {
	tb.Helper()
	ds, sim := testCorpus(tb)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		tb.Fatal(err)
	}
	trained, err := Train(spec, ds, WithDetectorSeed(2), WithCanonicalFeatures(), WithEvasionTelemetry())
	if err != nil {
		tb.Fatal(err)
	}
	var saved bytes.Buffer
	if err := trained.Save(&saved); err != nil {
		tb.Fatal(err)
	}
	pspec, err := CalldataModel()
	if err != nil {
		tb.Fatal(err)
	}
	payload, err := Train(pspec, sim.TxDataset(), WithDetectorSeed(3))
	if err != nil {
		tb.Fatal(err)
	}

	p := &parityCluster{calldata: sim.TxDataset().Samples[0].Bytecode}
	var urls []string
	for i := 0; i < 2; i++ {
		det, err := LoadDetector(bytes.NewReader(saved.Bytes()), WithEvasionTelemetry())
		if err != nil {
			tb.Fatal(err)
		}
		fused, err := NewFusedTxScorer(payload, det)
		if err != nil {
			tb.Fatal(err)
		}
		h := NewScoreHandler(det, WithClusterRole("replica"), WithTxScorer(fused))
		if i == 0 {
			p.replica, p.det, p.fused = h, det, fused
		}
		srv := httptest.NewServer(h)
		tb.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	if p.rt, err = NewClusterRouter(ClusterConfig{Replicas: urls, Backoff: 5 * time.Millisecond}); err != nil {
		tb.Fatal(err)
	}
	p.router = p.rt.Handler()
	front := httptest.NewServer(p.router)
	tb.Cleanup(front.Close)
	p.routerURL = front.URL

	// Bytecodes whose verdicts carry both telemetry fields, so a surface
	// that drops them cannot pass.
	for _, s := range ds.Samples {
		v, err := trained.Score(context.Background(), s.Bytecode)
		if err != nil {
			tb.Fatal(err)
		}
		if v.DeadCodeRatio > 0 && v.ScoreDivergence > 0 {
			p.codes = append(p.codes, s.Bytecode)
		}
		if len(p.codes) == 8 {
			break
		}
	}
	if len(p.codes) < 8 {
		tb.Fatalf("only %d corpus bytecodes carry telemetry", len(p.codes))
	}
	return p
}

var elapsedField = regexp.MustCompile(`"elapsed_ms":[^,}]*`)

// answer is one surface's reply with elapsed_ms masked.
type answer struct {
	status      int
	contentType string
	body        string
}

func serveOnce(h http.Handler, method, path string, body []byte) answer {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return answer{
		status:      rec.Code,
		contentType: rec.Header().Get("Content-Type"),
		body:        elapsedField.ReplaceAllString(rec.Body.String(), `"elapsed_ms":0`),
	}
}

// compare sends body to the replica directly and through the router and
// reports how the two answers differ ("" when they agree).
func (p *parityCluster) compare(method, path string, body []byte) (direct, routed answer, diff string) {
	direct = serveOnce(p.replica, method, path, body)
	routed = serveOnce(p.router, method, path, body)
	switch {
	case direct.status != routed.status:
		diff = fmt.Sprintf("status: replica %d, router %d", direct.status, routed.status)
	case direct.contentType != routed.contentType:
		diff = fmt.Sprintf("Content-Type: replica %q, router %q", direct.contentType, routed.contentType)
	case direct.body != routed.body:
		diff = "body differs"
	}
	if diff != "" {
		diff += fmt.Sprintf("\nreplica: %.600s\nrouter:  %.600s", direct.body, routed.body)
	}
	return direct, routed, diff
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestClusterRouterMatchesReplica checks that the router is wire-identical
// to one replica: every valid and hostile body gets the same status and the
// same bytes (apart from elapsed_ms) directly and through the router,
// evasion telemetry included, and RemoteScorer answers through the router
// the very verdicts the replica's own scorers return in process.
func TestClusterRouterMatchesReplica(t *testing.T) {
	p := startParityCluster(t)

	owners := map[int]bool{}
	var batch []string
	for _, c := range p.codes {
		owners[p.rt.Ring().Owner(cluster.KeyOf(c))] = true
		batch = append(batch, EncodeHex(c))
	}
	if len(owners) != 2 {
		t.Fatalf("test batch maps to %d replica(s), want a batch that spans both", len(owners))
	}
	huge := "0x" + strings.Repeat("00", 24577)
	many := make([]string, 1025)
	for i := range many {
		many[i] = "0x60"
	}
	single := EncodeHex(p.codes[0])
	calldata := EncodeHex(p.calldata)

	cases := []struct {
		name, method, path string
		body               []byte
	}{
		{"score/single", http.MethodPost, "/score", mustJSON(t, ScoreRequest{Bytecode: single})},
		{"score/batch", http.MethodPost, "/score", mustJSON(t, ScoreRequest{Bytecodes: batch})},
		{"score/single+batch", http.MethodPost, "/score", mustJSON(t, ScoreRequest{Bytecode: single, Bytecodes: batch})},
		{"score/empty-request", http.MethodPost, "/score", []byte(`{}`)},
		{"score/bad-hex", http.MethodPost, "/score", []byte(`{"bytecode":"0xZZ"}`)},
		{"score/empty-item", http.MethodPost, "/score", mustJSON(t, ScoreRequest{Bytecodes: []string{single, "0x"}})},
		{"score/oversized-item", http.MethodPost, "/score", mustJSON(t, ScoreRequest{Bytecode: huge})},
		{"score/oversized-batch", http.MethodPost, "/score", mustJSON(t, ScoreRequest{Bytecodes: many})},
		{"score/torn-body", http.MethodPost, "/score", []byte(`{"bytecodes":["0x60",`)},
		{"score/GET", http.MethodGet, "/score", nil},
		{"score-tx/single", http.MethodPost, "/score/tx", mustJSON(t, TxScoreRequest{Tx: &TxScoreItem{Calldata: calldata, Code: single}})},
		{"score-tx/batch-with-EOA", http.MethodPost, "/score/tx", mustJSON(t, TxScoreRequest{Txs: []TxScoreItem{
			{Calldata: calldata, Code: batch[1]}, {Calldata: calldata}, {Code: batch[2]},
		}})},
		{"score-tx/empty-request", http.MethodPost, "/score/tx", []byte(`{}`)},
		{"score-tx/bad-calldata-hex", http.MethodPost, "/score/tx", []byte(`{"tx":{"calldata":"0xZZ"}}`)},
		{"score-tx/oversized-calldata", http.MethodPost, "/score/tx", mustJSON(t, TxScoreRequest{Tx: &TxScoreItem{
			Calldata: "0x" + strings.Repeat("ab", 128<<10+1),
		}})},
		{"score-tx/oversized-code", http.MethodPost, "/score/tx", mustJSON(t, TxScoreRequest{Tx: &TxScoreItem{Calldata: calldata, Code: huge}})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct, _, diff := p.compare(tc.method, tc.path, tc.body)
			if diff != "" {
				t.Fatal(diff)
			}
			// The valid bodies must carry telemetry, or the comparison
			// above proves nothing about it.
			if direct.status == http.StatusOK && !strings.Contains(tc.name, "EOA") && !strings.Contains(direct.body, `"dead_code_ratio"`) {
				t.Fatalf("replica verdict carries no telemetry: %.300s", direct.body)
			}
		})
	}

	t.Run("RemoteScorer", func(t *testing.T) {
		ctx := context.Background()
		rs := NewRemoteScorer(p.routerURL, WithScoreRetries(3, 5*time.Millisecond))
		want, err := p.det.Score(ctx, p.codes[0])
		if err != nil {
			t.Fatal(err)
		}
		if v, err := rs.Score(ctx, p.codes[0]); err != nil || v != want {
			t.Errorf("RemoteScorer.Score = %+v, %v; the replica's detector answers %+v", v, err, want)
		}
		for _, tx := range []struct {
			name           string
			calldata, code []byte
		}{
			{"code+calldata", p.calldata, p.codes[0]},
			{"calldata", p.calldata, nil},
			{"code", nil, p.codes[0]},
		} {
			want, err := p.fused.ScoreTx(ctx, tx.calldata, tx.code)
			if err != nil {
				t.Fatal(err)
			}
			if v, err := rs.ScoreTx(ctx, tx.calldata, tx.code); err != nil || v != want {
				t.Errorf("%s: RemoteScorer.ScoreTx = %+v, %v; the replica's fused scorer answers %+v", tx.name, v, err, want)
			}
		}
	})
}

// FuzzRouterMatchesReplica sends arbitrary bodies to /score or /score/tx
// (tx picks) on one replica directly and through the router: both must
// answer the same status, error kind and bytes (apart from elapsed_ms), and
// neither may fail with a 5xx. It guards any change to how the router
// decodes or forwards a request.
func FuzzRouterMatchesReplica(f *testing.F) {
	p := startParityCluster(f)
	code := EncodeHex(p.codes[0])
	calldata := EncodeHex(p.calldata)
	huge := "0x" + strings.Repeat("00", 24577)
	seeds := [][2][]byte{
		{mustJSON(f, ScoreRequest{Bytecode: code}), mustJSON(f, TxScoreRequest{Tx: &TxScoreItem{Calldata: calldata, Code: code}})},
		{mustJSON(f, ScoreRequest{Bytecodes: []string{code, EncodeHex(p.codes[1])}}),
			mustJSON(f, TxScoreRequest{Txs: []TxScoreItem{{Calldata: calldata, Code: code}, {Code: EncodeHex(p.codes[1])}}})},
		{mustJSON(f, ScoreRequest{Bytecode: huge}), mustJSON(f, TxScoreRequest{Tx: &TxScoreItem{Code: huge}})},
		{[]byte(`{}`), []byte(`{}`)},
		{[]byte(`{"bytecode":"0xZZ"}`), []byte(`{"tx":{"calldata":"0xZZ"}}`)},
		{[]byte(`{"bytecode":"0x`), []byte(`{"tx":{"calldata":"0x`)},
		{[]byte(`{"bytecode":"","bytecodes":[""]}`), []byte(`{"tx":{},"txs":[{}]}`)},
		{[]byte(`{"bytecodes":["0x60","not hex","0x00"]}`), []byte(`{"txs":[{"calldata":"0x60"},{"code":"not hex"},{"code":"0x00"}]}`)},
		{[]byte(`[1,2,3]`), []byte(`[1,2,3]`)},
		{[]byte(``), []byte(``)},
	}
	for _, s := range seeds {
		f.Add(false, s[0])
		f.Add(true, s[1])
	}

	f.Fuzz(func(t *testing.T, tx bool, body []byte) {
		path := "/score"
		if tx {
			path = "/score/tx"
		}
		direct, routed, diff := p.compare(http.MethodPost, path, body)
		if direct.status >= 500 || routed.status >= 500 {
			t.Fatalf("5xx for %s body %q: replica %d, router %d\nreplica: %.300s\nrouter:  %.300s",
				path, body, direct.status, routed.status, direct.body, routed.body)
		}
		var dk, rk struct {
			Kind string `json:"kind"`
		}
		_ = json.Unmarshal([]byte(direct.body), &dk)
		_ = json.Unmarshal([]byte(routed.body), &rk)
		if dk.Kind != rk.Kind {
			t.Fatalf("error kind for %s body %q: replica %q, router %q", path, body, dk.Kind, rk.Kind)
		}
		if diff != "" {
			t.Fatalf("%s body %q: %s", path, body, diff)
		}
	})
}

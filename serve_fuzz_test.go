package phishinghook

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/phishinghook/phishinghook/internal/httpapi"
)

// FuzzScoreHandler throws arbitrary request bodies at POST /score — the
// serving boundary an attacker reaches first — and checks the handler never
// panics, always answers with a decodable JSON body, and stays inside the
// documented status set. The seed corpus covers the interesting classes:
// valid single/batch requests, malformed hex, truncated JSON, empty items,
// and a bytecode past the EIP-170 cap (which must come back as a typed 413).
func FuzzScoreHandler(f *testing.F) {
	ds, _ := testCorpus(f)
	spec, err := ModelByName("Random Forest")
	if err != nil {
		f.Fatal(err)
	}
	det, err := Train(spec, ds, WithDetectorSeed(2), WithCanonicalFeatures(), WithEvasionTelemetry())
	if err != nil {
		f.Fatal(err)
	}
	handler := NewScoreHandler(det)

	valid, err := json.Marshal(ScoreRequest{Bytecode: EncodeHex(ds.Samples[0].Bytecode)})
	if err != nil {
		f.Fatal(err)
	}
	batch, err := json.Marshal(ScoreRequest{Bytecodes: []string{
		EncodeHex(ds.Samples[0].Bytecode), EncodeHex(ds.Samples[1].Bytecode),
	}})
	if err != nil {
		f.Fatal(err)
	}
	oversized, err := json.Marshal(ScoreRequest{Bytecode: "0x" + strings.Repeat("00", httpapi.MaxItemBytes+1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(batch)
	f.Add(oversized)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"bytecode":"0xZZ"}`))
	f.Add([]byte(`{"bytecode":"0x`))
	f.Add([]byte(`{"bytecode":"","bytecodes":[""]}`))
	f.Add([]byte(`{"bytecodes":["0x60","not hex","0x00"]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/score", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
		if rec.Code == http.StatusOK {
			var resp ScoreResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body is not a ScoreResponse: %v (%q)", err, rec.Body.Bytes())
			}
			if len(resp.Verdicts) == 0 && resp.Verdict == nil {
				t.Fatalf("200 with no verdicts for body %q", body)
			}
			return
		}
		var errBody map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &errBody); err != nil {
			t.Fatalf("error body is not JSON: %v (%q)", err, rec.Body.Bytes())
		}
		if errBody["error"] == "" {
			t.Fatalf("status %d without an error message: %q", rec.Code, rec.Body.Bytes())
		}
		if rec.Code == http.StatusRequestEntityTooLarge && errBody["kind"] != httpapi.KindBytecodeTooLarge {
			t.Fatalf("413 with kind %q, want %q", errBody["kind"], httpapi.KindBytecodeTooLarge)
		}
	})
}

// Package httpapi is the wire contract of POST /score and POST /score/tx,
// served alike by a scoring replica (the root package's NewScoreHandler) and
// by the cluster router (internal/cluster): the request, verdict and
// response types, the request caps and their typed error kinds, the readers
// that decode and validate a request body, and the JSON and error writers.
// Because both surfaces call the same code, a router answers every request
// with the bytes one replica would (apart from elapsed_ms).
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/phishinghook/phishinghook/internal/evm"
)

// ScoreRequest is the POST /score payload: one bytecode, a batch, or both.
// When both fields are set, the request is treated as a batch of
// [bytecode, bytecodes...]: every entry is scored, `verdicts` aligns with
// that concatenation, and `verdict` carries the `bytecode` entry's verdict.
type ScoreRequest struct {
	// Bytecode is one 0x-prefixed hex bytecode.
	Bytecode string `json:"bytecode,omitempty"`
	// Bytecodes is a batch of 0x-prefixed hex bytecodes.
	Bytecodes []string `json:"bytecodes,omitempty"`
}

// Verdict is the wire form of one scoring decision.
type Verdict struct {
	Label      string  `json:"label"`
	Phishing   bool    `json:"phishing"`
	Confidence float64 `json:"confidence"`
	Model      string  `json:"model"`
	// ModelVersion is the lifecycle version that scored (omitted when
	// serving a bare, unversioned Detector).
	ModelVersion string `json:"model_version,omitempty"`
	// Modality distinguishes the scored artifact: omitted (implicitly
	// "contract") for bytecode verdicts — keeping existing contract verdict
	// JSON byte-for-byte identical — or "tx" for fused transaction verdicts.
	Modality string `json:"modality,omitempty"`
	// PayloadProb and CodeProb are the fused tx verdict's components
	// (tx modality only; a zero contribution — empty calldata, EOA callee —
	// is omitted).
	PayloadProb float64 `json:"payload_prob,omitempty"`
	CodeProb    float64 `json:"code_prob,omitempty"`
	// Evasion telemetry (WithEvasionTelemetry only). All omitempty: a
	// detector without telemetry emits verdict JSON byte-for-byte identical
	// to before the fields existed.
	DeadCodeRatio   float64 `json:"dead_code_ratio,omitempty"`
	ScoreDivergence float64 `json:"score_divergence,omitempty"`
	EvasionSuspect  bool    `json:"evasion_suspect,omitempty"`
}

// ScoreResponse is the reply to both routes. Verdicts aligns with the
// request order (single item first); Verdict is set whenever the request's
// single field (`bytecode` or `tx`) was present and points at its verdict.
type ScoreResponse struct {
	Verdict   *Verdict  `json:"verdict,omitempty"`
	Verdicts  []Verdict `json:"verdicts"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// TxScoreItem is one transaction to judge: its calldata plus (optionally)
// its callee's deployed bytecode. Either side may be empty — a plain value
// transfer has no calldata, an EOA callee has no code. With both empty
// there is nothing to judge: the fused scorer answers benign with
// confidence 1.
type TxScoreItem struct {
	// Calldata is the 0x-prefixed hex transaction input.
	Calldata string `json:"calldata,omitempty"`
	// Code is the callee's 0x-prefixed hex deployed bytecode.
	Code string `json:"code,omitempty"`
}

// TxScoreRequest is the POST /score/tx payload: one transaction, a batch, or
// both (the single tx joins the batch at position 0, mirroring /score).
type TxScoreRequest struct {
	Tx  *TxScoreItem  `json:"tx,omitempty"`
	Txs []TxScoreItem `json:"txs,omitempty"`
}

// ErrorBody is every error reply: a message, plus a machine-readable kind
// on typed policy rejections so clients can branch without parsing text.
type ErrorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

// MaxBatch bounds one request's batch size and MaxBodyBytes its wire size
// (backpressure; larger workloads should stream multiple requests).
// Deployed EVM bytecode tops out at 24KB (48KB hex), so the body limit
// comfortably fits a full batch.
//
// Per-item input hardening: a deployed EVM contract is capped at
// MaxItemBytes by EIP-170, so anything larger is not bytecode that can
// exist on chain — reject it at the boundary instead of burning featurizer
// time on it. Calldata has no protocol cap, but block gas limits keep
// honest payloads far below MaxCalldataBytes; the cap bounds worst-case
// work per item. Both rejections carry a Kind.
const (
	MaxBatch         = 1024
	MaxBodyBytes     = 64 << 20
	MaxItemBytes     = 24576
	MaxCalldataBytes = 128 << 10
)

// Error kinds of the per-item caps.
const (
	KindBytecodeTooLarge = "bytecode_too_large"
	KindCalldataTooLarge = "calldata_too_large"
)

// Batch is a validated POST /score request: Codes[i] is Hexes[i] decoded,
// and Single reports that the `bytecode` field was present (it is item 0).
type Batch struct {
	Hexes  []string
	Codes  [][]byte
	Single bool
}

// ReadBatch decodes and validates a POST /score body. On a bad request it
// writes the error reply and returns false.
func ReadBatch(w http.ResponseWriter, r *http.Request) (Batch, bool) {
	var req ScoreRequest
	if !decode(w, r, &req) {
		return Batch{}, false
	}
	b := Batch{Hexes: req.Bytecodes, Single: req.Bytecode != ""}
	if b.Single {
		b.Hexes = append([]string{req.Bytecode}, b.Hexes...)
	}
	if !checkCount(w, len(b.Hexes), "bytecode") {
		return Batch{}, false
	}
	b.Codes = make([][]byte, len(b.Hexes))
	for i, h := range b.Hexes {
		code, err := evm.DecodeHex(h)
		if err != nil {
			Error(w, http.StatusBadRequest, "bytecode %d: %v", i, err)
			return Batch{}, false
		}
		if len(code) == 0 {
			Error(w, http.StatusBadRequest, "bytecode %d: empty", i)
			return Batch{}, false
		}
		if len(code) > MaxItemBytes {
			ErrorKind(w, http.StatusRequestEntityTooLarge, KindBytecodeTooLarge,
				"bytecode %d: %d bytes exceeds the EIP-170 deployed-code cap %d", i, len(code), MaxItemBytes)
			return Batch{}, false
		}
		b.Codes[i] = code
	}
	return b, true
}

// Tx is one decoded transaction; an empty hex side decodes to nil.
type Tx struct{ Calldata, Code []byte }

// TxBatch is a validated POST /score/tx request: Txs[i] is Items[i]
// decoded, and Single reports that the `tx` field was present (item 0).
type TxBatch struct {
	Items  []TxScoreItem
	Txs    []Tx
	Single bool
}

// ReadTxBatch decodes and validates a POST /score/tx body. On a bad request
// it writes the error reply and returns false.
func ReadTxBatch(w http.ResponseWriter, r *http.Request) (TxBatch, bool) {
	var req TxScoreRequest
	if !decode(w, r, &req) {
		return TxBatch{}, false
	}
	b := TxBatch{Items: req.Txs, Single: req.Tx != nil}
	if b.Single {
		b.Items = append([]TxScoreItem{*req.Tx}, b.Items...)
	}
	if !checkCount(w, len(b.Items), "tx") {
		return TxBatch{}, false
	}
	b.Txs = make([]Tx, len(b.Items))
	for i, item := range b.Items {
		tx := &b.Txs[i]
		var err error
		if item.Calldata != "" {
			if tx.Calldata, err = evm.DecodeHex(item.Calldata); err != nil {
				Error(w, http.StatusBadRequest, "tx %d calldata: %v", i, err)
				return TxBatch{}, false
			}
			if len(tx.Calldata) > MaxCalldataBytes {
				ErrorKind(w, http.StatusRequestEntityTooLarge, KindCalldataTooLarge,
					"tx %d: calldata of %d bytes exceeds cap %d", i, len(tx.Calldata), MaxCalldataBytes)
				return TxBatch{}, false
			}
		}
		if item.Code != "" {
			if tx.Code, err = evm.DecodeHex(item.Code); err != nil {
				Error(w, http.StatusBadRequest, "tx %d code: %v", i, err)
				return TxBatch{}, false
			}
			if len(tx.Code) > MaxItemBytes {
				ErrorKind(w, http.StatusRequestEntityTooLarge, KindBytecodeTooLarge,
					"tx %d: code of %d bytes exceeds the EIP-170 deployed-code cap %d", i, len(tx.Code), MaxItemBytes)
				return TxBatch{}, false
			}
		}
	}
	return b, true
}

// decode reads one JSON value of at most MaxBodyBytes into v; a body over
// the limit is a 413, any other decode failure a 400.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	Error(w, status, "bad JSON: %v", err)
	return false
}

// checkCount refuses an empty batch and one over MaxBatch.
func checkCount(w http.ResponseWriter, n int, noun string) bool {
	switch {
	case n == 0:
		Error(w, http.StatusBadRequest, "no %s in request", noun)
		return false
	case n > MaxBatch:
		Error(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds limit %d", n, MaxBatch)
		return false
	}
	return true
}

// Only writes a 405 "<method> only" reply and returns false unless r uses
// method.
func Only(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	Error(w, http.StatusMethodNotAllowed, "%s only", method)
	return false
}

// WriteVerdicts answers 200 with verdicts in request order; single points
// Verdict at item 0, and ElapsedMS counts from t0.
func WriteVerdicts(w http.ResponseWriter, verdicts []Verdict, single bool, t0 time.Time) {
	resp := ScoreResponse{
		Verdicts:  verdicts,
		ElapsedMS: float64(time.Since(t0).Microseconds()) / 1000,
	}
	if single {
		resp.Verdict = &resp.Verdicts[0]
	}
	WriteJSON(w, http.StatusOK, resp)
}

// WriteJSON writes v as a JSON reply with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Error writes an ErrorBody reply without a kind.
func Error(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// ErrorKind writes an ErrorBody reply tagged with kind.
func ErrorKind(w http.ResponseWriter, status int, kind, format string, args ...any) {
	WriteJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...), Kind: kind})
}

// Package phishinghook is a Go reproduction of "PhishingHook: Catching
// Phishing Ethereum Smart Contracts leveraging EVM Opcodes" (DSN 2025).
//
// It provides the paper's four modules behind one Framework:
//
//   - BEM (bytecode extraction): eth_getCode over JSON-RPC
//   - BDM (bytecode disassembly): Shanghai-fork opcode decoding
//   - MEM (model evaluation): 16 classifiers across 4 families under
//     k-fold × runs cross-validation
//   - PAM (post-hoc analysis): Shapiro-Wilk, Kruskal-Wallis, Dunn+Holm
//
// plus the data-gathering pipeline (registry crawl + label scrape) and a
// fully simulated substrate (chain, JSON-RPC node, explorer services,
// synthetic contract corpus) so the entire system runs offline; see
// DESIGN.md for the substitution map against the paper's real-world
// dependencies.
package phishinghook

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/dataset"
	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/eval"
	"github.com/phishinghook/phishinghook/internal/evm"
	"github.com/phishinghook/phishinghook/internal/explorer"
	"github.com/phishinghook/phishinghook/internal/models"
)

// Re-exported core types so downstream users can name them without
// reaching into internal packages.
type (
	// Dataset is a labelled bytecode corpus.
	Dataset = dataset.Dataset
	// Sample is one labelled contract.
	Sample = dataset.Sample
	// Label is a binary class label.
	Label = dataset.Label
	// Instruction is one disassembled EVM instruction.
	Instruction = evm.Instruction
	// Opcode is an EVM opcode byte.
	Opcode = evm.Opcode
	// Metrics holds accuracy/precision/recall/F1.
	Metrics = eval.Metrics
	// CVResult aggregates cross-validation trials for one model.
	CVResult = eval.CVResult
	// CVConfig controls cross-validation.
	CVConfig = eval.CVConfig
	// ModelSpec describes one of the 16 evaluated models.
	ModelSpec = models.Spec
	// NeuralConfig sizes the neural models.
	NeuralConfig = models.NeuralConfig
	// Classifier is the model interface.
	Classifier = models.Classifier
)

// Label values.
const (
	// Benign marks non-flagged contracts.
	Benign = dataset.Benign
	// Phishing marks contracts the label service flags "Phish/Hack".
	Phishing = dataset.Phishing
)

// PhishLabel is the explorer flag string the paper keys on.
const PhishLabel = explorer.PhishLabel

// Models returns the 16 model specifications in the paper's Table II order.
func Models() []ModelSpec { return models.AllSpecs() }

// ComputeMetrics scores binary predictions against ground-truth labels.
func ComputeMetrics(pred, truth []int) (Metrics, error) { return eval.Compute(pred, truth) }

// ModelByName resolves a model spec by display name.
func ModelByName(name string) (ModelSpec, error) { return models.SpecByName(name) }

// DefaultNeuralConfig returns the calibrated CPU-scale neural sizing.
func DefaultNeuralConfig(seed int64) NeuralConfig { return models.DefaultNeuralConfig(seed) }

// Disassemble decodes deployed bytecode into instructions (the BDM).
func Disassemble(code []byte) []Instruction { return evm.Disassemble(code) }

// DecodeHex parses 0x-prefixed bytecode hex.
func DecodeHex(s string) ([]byte, error) { return evm.DecodeHex(s) }

// EncodeHex renders bytecode as 0x-prefixed hex.
func EncodeHex(code []byte) string { return evm.EncodeHex(code) }

// Option configures a Framework.
type Option func(*Framework)

// WithWorkers sets crawl/extraction concurrency (default 8).
func WithWorkers(n int) Option {
	return func(f *Framework) {
		if n > 0 {
			f.workers = n
		}
	}
}

// WithNeuralConfig overrides the neural model sizing used by Evaluate.
func WithNeuralConfig(cfg NeuralConfig) Option {
	return func(f *Framework) { f.neural = cfg }
}

// Framework wires the four PhishingHook modules against a JSON-RPC node and
// an explorer service (real or simulated — the endpoints are plain HTTP).
type Framework struct {
	rpcURL      string
	explorerURL string
	workers     int
	neural      NeuralConfig
}

// New builds a Framework against the given endpoints.
func New(rpcURL, explorerURL string, opts ...Option) *Framework {
	f := &Framework{
		rpcURL:      rpcURL,
		explorerURL: explorerURL,
		workers:     8,
		neural:      models.DefaultNeuralConfig(1),
	}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

// GatherAddresses lists contract addresses deployed in [fromBlock,toBlock]
// from the registry service (paper step ➊).
func (f *Framework) GatherAddresses(ctx context.Context, fromBlock, toBlock uint64) ([]string, error) {
	crawler := explorer.NewCrawler(f.explorerURL, explorer.WithWorkers(f.workers))
	return crawler.ListContracts(ctx, fromBlock, toBlock)
}

// LabelAddresses scrapes the "Phish/Hack" flags for the addresses (➋).
// The returned map holds true for flagged addresses; fetch errors abort.
func (f *Framework) LabelAddresses(ctx context.Context, addrs []string) (map[string]bool, error) {
	crawler := explorer.NewCrawler(f.explorerURL, explorer.WithWorkers(f.workers))
	results := crawler.LabelAll(ctx, addrs)
	out := make(map[string]bool, len(results))
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("phishinghook: label %s: %w", r.Address, r.Err)
		}
		out[r.Address] = r.Label == explorer.PhishLabel
	}
	return out, nil
}

// ExtractBytecode fetches deployed bytecode via eth_getCode (➌, the BEM).
func (f *Framework) ExtractBytecode(ctx context.Context, address string) ([]byte, error) {
	addr, err := parseAddr(address)
	if err != nil {
		return nil, err
	}
	client, err := ethrpc.NewMultiClient([]string{f.rpcURL})
	if err != nil {
		return nil, err
	}
	return client.GetCode(ctx, addr)
}

// BuildDataset runs the full data pipeline (➊–➍): gather, label, extract,
// deduplicate, and balance with benign samples. Months are derived from
// deployment blocks.
func (f *Framework) BuildDataset(ctx context.Context, fromBlock, toBlock uint64, seed int64) (*Dataset, error) {
	addrs, err := f.GatherAddresses(ctx, fromBlock, toBlock)
	if err != nil {
		return nil, fmt.Errorf("phishinghook: gather: %w", err)
	}
	labels, err := f.LabelAddresses(ctx, addrs)
	if err != nil {
		return nil, fmt.Errorf("phishinghook: label: %w", err)
	}
	// Extraction fans out over f.workers goroutines (eth_getCode is the
	// pipeline's slowest step); results keep the crawl order so dedup and
	// balancing stay deterministic.
	client, err := ethrpc.NewMultiClient([]string{f.rpcURL})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	codes := make([][]byte, len(addrs))
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err; cancel() })
	}
	sem := make(chan struct{}, f.workers)
extract:
	for i, a := range addrs {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break extract
		}
		wg.Add(1)
		go func(i int, a string) {
			defer wg.Done()
			defer func() { <-sem }()
			addr, err := parseAddr(a)
			if err != nil {
				fail(err)
				return
			}
			code, err := client.GetCode(ctx, addr)
			if err != nil {
				fail(fmt.Errorf("phishinghook: extract %s: %w", a, err))
				return
			}
			codes[i] = code
		}(i, a)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ds := &dataset.Dataset{}
	for i, a := range addrs {
		if codes[i] == nil {
			continue
		}
		lbl := dataset.Benign
		if labels[a] {
			lbl = dataset.Phishing
		}
		ds.Samples = append(ds.Samples, dataset.Sample{
			Address:  a,
			Bytecode: codes[i],
			Label:    lbl,
			// Month is unknown over plain RPC; callers that need temporal
			// structure use the simulation's direct dataset path.
			Month: 0,
		})
	}
	rng := rand.New(rand.NewSource(seed))
	return ds.Dedup().Balance(rng), nil
}

// Evaluate cross-validates the given model specs on a dataset (➐, the MEM).
func (f *Framework) Evaluate(specs []ModelSpec, ds *Dataset, cv CVConfig) ([]CVResult, error) {
	out := make([]CVResult, 0, len(specs))
	for _, spec := range specs {
		r, err := eval.CrossValidate(spec, f.neural, ds, cv)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func parseAddr(s string) (chain.Address, error) {
	return chain.ParseAddress(s)
}

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"

	ph "github.com/phishinghook/phishinghook"
	"github.com/phishinghook/phishinghook/internal/chain"
	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/explorer"
	"github.com/phishinghook/phishinghook/internal/synth"
)

// world is the simulated substrate, built the way StartSimulation builds
// it, but owned by the harness: it keeps the deployment block of every
// contract and tx, and it drives the block clock itself.
type world struct {
	chain *chain.Chain
	svc   *explorer.Service
	// all is every deployment in block order, captured before GoLive hides
	// the future; byAddr indexes it.
	all    []*chain.Contract
	byAddr map[chain.Address]*chain.Contract
	txs    []*chain.Tx
	// uniques are the distinct bytecodes in order of first deployment.
	uniques [][]byte
	codeDS  *ph.Dataset
	txDS    *ph.Dataset

	servers []*httptest.Server
}

// newWorld builds the chain, the tx log and both training sets.
func newWorld(cfg config) (*world, error) {
	gen := synth.DefaultConfig(cfg.Seed)
	gen.SignalStrength, gen.LabelNoise, gen.DriftStrength = 0.95, labelNoise, 0.35
	c, err := chain.Build(chain.BuildConfig{
		Generator:      synth.NewGenerator(gen),
		Timeline:       synth.ScaledTimeline(cfg.ObtainedPhishing, cfg.UniquePhishing),
		BenignPerMonth: chain.UniformBenign(cfg.Benign),
		ProxyFraction:  0.08,
	})
	if err != nil {
		return nil, fmt.Errorf("build chain: %w", err)
	}
	err = chain.BuildTxTraffic(c, chain.TxTrafficConfig{
		Generator: synth.NewTxGenerator(synth.TxConfig{Seed: cfg.Seed}),
		PerMonth:  chain.UniformTxTraffic(cfg.TxPerMonth * synth.NumMonths),
	})
	if err != nil {
		return nil, fmt.Errorf("build tx traffic: %w", err)
	}
	w := &world{
		chain:  c,
		svc:    explorer.NewService(c, explorer.ServiceConfig{LabelNoise: labelNoise, NoiseSeed: cfg.Seed}),
		all:    c.All(),
		byAddr: map[chain.Address]*chain.Contract{},
		txs:    c.TxsInRange(0, ^uint64(0)),
	}
	seen := map[string]bool{}
	codeDS := &ph.Dataset{}
	for _, ct := range w.all {
		w.byAddr[ct.Addr] = ct
		if !seen[string(ct.Code)] {
			seen[string(ct.Code)] = true
			w.uniques = append(w.uniques, ct.Code)
		}
		lbl := ph.Benign
		if w.svc.LabelFor(ct) == explorer.PhishLabel {
			lbl = ph.Phishing
		}
		codeDS.Samples = append(codeDS.Samples, ph.Sample{Address: ct.Addr.String(), Bytecode: ct.Code, Label: lbl, Month: ct.Month})
	}
	w.codeDS = codeDS.Dedup().Balance(rand.New(rand.NewSource(cfg.Seed + 7)))
	txDS := &ph.Dataset{}
	for _, tx := range w.txs {
		if len(tx.Calldata) == 0 {
			continue
		}
		lbl := ph.Benign
		if tx.Drainer {
			lbl = ph.Phishing
		}
		txDS.Samples = append(txDS.Samples, ph.Sample{Address: tx.HashHex(), Bytecode: tx.Calldata, Label: lbl, Month: chain.MonthOfBlock(tx.Block)})
	}
	w.txDS = txDS.Balance(rand.New(rand.NewSource(cfg.Seed + 11)))
	return w, nil
}

// labelNoise is the explorer's label-flip rate (the simulation default).
const labelNoise = 0.015

// serveRPC starts one JSON-RPC node over the chain and returns its URL.
func (w *world) serveRPC(tr *tracer) string {
	srv := httptest.NewServer(tr.rpcHandler(ethrpc.NewServer(w.chain, 1)))
	w.servers = append(w.servers, srv)
	return srv.URL
}

// serveExplorer starts the registry service and returns its URL.
func (w *world) serveExplorer(tr *tracer) string {
	srv := httptest.NewServer(tr.handler("explorer.list", w.svc.Handler()))
	w.servers = append(w.servers, srv)
	return srv.URL
}

func (w *world) close() {
	for _, s := range w.servers {
		s.Close()
	}
	w.servers = nil
}

// contractsIn returns the deployments with block in (from, to].
func (w *world) contractsIn(from, to uint64) []*chain.Contract {
	lo := sort.Search(len(w.all), func(i int) bool { return w.all[i].Block > from })
	hi := sort.Search(len(w.all), func(i int) bool { return w.all[i].Block > to })
	return w.all[lo:hi]
}

// txsIn returns the transactions with block in (from, to].
func (w *world) txsIn(from, to uint64) []*chain.Tx {
	lo := sort.Search(len(w.txs), func(i int) bool { return w.txs[i].Block > from })
	hi := sort.Search(len(w.txs), func(i int) bool { return w.txs[i].Block > to })
	return w.txs[lo:hi]
}

// trained is a detector saved once, so the system under test and the
// reference can each load their own copy with no shared cache.
type trained struct {
	spec   ph.ModelSpec
	seed   int64
	neural ph.NeuralConfig
	canon  bool
	blob   []byte
}

// train fits spec on ds and saves the result.
func train(spec ph.ModelSpec, ds *ph.Dataset, seed int64, neural *ph.NeuralConfig, canonical bool) (trained, error) {
	opts := []ph.DetectorOption{ph.WithDetectorSeed(seed)}
	t := trained{spec: spec, seed: seed, canon: canonical}
	if neural != nil {
		opts = append(opts, ph.WithDetectorNeural(*neural))
		t.neural = *neural
	} else {
		t.neural = ph.DefaultNeuralConfig(seed)
	}
	if canonical {
		opts = append(opts, ph.WithCanonicalFeatures())
	}
	d, err := ph.Train(spec, ds, opts...)
	if err != nil {
		return t, err
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		return t, err
	}
	t.blob = buf.Bytes()
	return t, nil
}

// load builds a fresh serving detector (own cache) from the saved model.
func (t trained) load(opts ...ph.DetectorOption) (*ph.Detector, error) {
	return ph.LoadDetector(bytes.NewReader(t.blob), opts...)
}

// modelSpec resolves a model name the benchmark depends on.
func modelSpec(name string) ph.ModelSpec {
	spec, err := ph.ModelByName(name)
	if err != nil {
		panic(fmt.Sprintf("bench: model %q: %v", name, err))
	}
	return spec
}

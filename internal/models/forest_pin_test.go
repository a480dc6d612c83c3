package models

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/phishinghook/phishinghook/internal/dataset"
	"github.com/phishinghook/phishinghook/internal/evm"
	"github.com/phishinghook/phishinghook/internal/ml/tree"
	"github.com/phishinghook/phishinghook/internal/synth"
)

// forestDigest hashes every node of every tree — feature, threshold bits,
// children, value bits and cover bits — so any drift in how a tree is grown
// changes it, whatever the serialization does.
func forestDigest(f *tree.Forest) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(f.TreeList)))
	for _, t := range f.TreeList {
		put(uint64(len(t.Nodes)))
		for _, nd := range t.Nodes {
			put(uint64(int64(nd.Feature)))
			put(math.Float64bits(nd.Threshold))
			put(uint64(int64(nd.Left)))
			put(uint64(int64(nd.Right)))
			put(math.Float64bits(nd.Value))
			put(math.Float64bits(nd.Cover))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canonicalDataset rewrites every bytecode to canonical form, the way a
// canonical-features detector prepares its training set.
func canonicalDataset(ds *dataset.Dataset) *dataset.Dataset {
	out := &dataset.Dataset{Samples: append([]dataset.Sample(nil), ds.Samples...)}
	for i := range out.Samples {
		out.Samples[i].Bytecode, _ = evm.Canonicalize(out.Samples[i].Bytecode, nil)
	}
	return out
}

// calldataDataset draws n labelled payloads from the tx generator.
func calldataDataset(n int, seed int64) *dataset.Dataset {
	g := synth.NewTxGenerator(synth.TxConfig{Seed: seed})
	ds := &dataset.Dataset{}
	for i := 0; i < n; i++ {
		data, drainer := g.Calldata()
		lbl := dataset.Benign
		if drainer {
			lbl = dataset.Phishing
		}
		ds.Samples = append(ds.Samples, dataset.Sample{Bytecode: data, Label: lbl, Month: i % synth.NumMonths})
	}
	return ds
}

// TestServedForestsPinned fits the three forests the system serves — the
// raw and canonical HSC Random Forests and the Calldata Forest — and
// compares every node against digests recorded before the split search was
// rewritten. Any change to how trees grow, on any path, fails here.
//
// The digests are amd64 values. Go may fuse a multiply and an add into one
// instruction, which skips a rounding; the amd64 compiler never does so
// implicitly, but arm64 fuses the split gain and the synthetic data
// generators, so other architectures grow slightly different trees from
// the same seed. TestFitMatchesReference checks the split search on every
// architecture.
func TestServedForestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("node digests were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	code := smallDataset(t, 300, 5)
	cases := []struct {
		name string
		clf  Classifier
		ds   *dataset.Dataset
		want string
	}{
		{"raw Random Forest", NewRandomForest(7), code,
			"dccae1f52d065a73f9f333d5118fce030e7668eaf51a9d3ba3c4a4d8f9337ae1"},
		{"canonical Random Forest", NewRandomForest(7), canonicalDataset(code),
			"13dd2e5bf4831c2ee1122fbf791046a2f621c864f9cd4389b55513f9c0e79246"},
		{"Calldata Forest", NewCalldataForest(7), calldataDataset(600, 3),
			"10d1520f349be1622260f534bee62148ad264de1caafdfa7c843b71f2fc2ebc4"},
	}
	for _, tc := range cases {
		if err := tc.clf.Fit(tc.ds); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		f := tc.clf.(*hscModel).Forest()
		if got := forestDigest(f); got != tc.want {
			t.Errorf("%s: node digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

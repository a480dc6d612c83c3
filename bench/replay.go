package main

import (
	"context"
	"fmt"
	"time"

	ph "github.com/phishinghook/phishinghook"
	"github.com/phishinghook/phishinghook/internal/evm"
	"github.com/phishinghook/phishinghook/internal/models"
)

// refit rebuilds the model behind a trained detector from its spec, seed and
// training data, the way Train does, so its stages can be timed one by one.
func refit(t trained, ds *ph.Dataset) (models.Scorer, error) {
	m, ok := t.spec.New(t.seed, t.neural).(models.Scorer)
	if !ok {
		return nil, fmt.Errorf("%s does not serve", t.spec.Name)
	}
	if t.canon {
		c := &ph.Dataset{Samples: append([]ph.Sample(nil), ds.Samples...)}
		for i := range c.Samples {
			c.Samples[i].Bytecode, _ = evm.Canonicalize(c.Samples[i].Bytecode, nil)
		}
		ds = c
	}
	if err := m.Fit(ds); err != nil {
		return nil, fmt.Errorf("refit %s: %w", t.spec.Name, err)
	}
	return m, nil
}

// perItem times fn over n items and returns nanoseconds per item.
func perItem(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// replayStages times the scoring path of a detector stage by stage over the
// run's own bytecodes: disassembly (evm.WalkOps), canonicalization,
// featurization and inference on a refit model. The refit model's
// probabilities must equal the reference detector's verdicts; every
// disagreement is a failed check.
func (m *measurement) replayStages(ctx context.Context, t trained, ds *ph.Dataset, codes [][]byte, ref *ph.Detector) error {
	model, err := refit(t, ds)
	if err != nil {
		return err
	}
	fz := model.Featurizer()
	m.layer["evm.disassemble_ns"] = perItem(len(codes), func(i int) { evm.WalkOps(codes[i], func(evm.Opcode) {}) })
	inputs := codes
	canonNs := 0.0
	if t.canon {
		inputs = make([][]byte, len(codes))
		canonNs = perItem(len(codes), func(i int) { inputs[i], _ = evm.Canonicalize(codes[i], nil) })
	} else {
		// Timed for the breakdown, though this detector does not
		// canonicalize when it serves.
		m.layer["evm.canonicalize_ns"] = perItem(len(codes), func(i int) { evm.Canonicalize(codes[i], nil) })
	}
	xs := make([][]float64, len(codes))
	featNs := perItem(len(codes), func(i int) { xs[i] = fz.Transform(inputs[i]) })
	ps := make([]float64, len(codes))
	errs := 0
	inferNs := perItem(len(codes), func(i int) {
		var e error
		if ps[i], e = model.ScoreFeatures(xs[i]); e != nil {
			errs++
		}
	})
	m.fail(errs, "refit %s failed to score", t.spec.Name)
	want, err := ref.ScoreBatch(ctx, codes)
	if err != nil {
		return fmt.Errorf("reference scores: %w", err)
	}
	mismatch := 0
	for i, v := range want {
		if confidence(ps[i]) != v.Confidence || (ps[i] >= 0.5) != v.IsPhishing() {
			mismatch++
		}
	}
	m.attempted += int64(len(codes))
	m.fail(mismatch, "refit %s disagrees with the served detector", t.spec.Name)
	if t.canon {
		m.layer["evm.canonicalize_ns"] = canonNs
	}
	m.layer["features.featurize_ns"] = featNs
	m.layer["models.infer_ns"] = inferNs
	m.layer["models.infer_share"] = ratio(inferNs, canonNs+featNs+inferNs)
	m.note("stage replay over %d bytecodes: canonicalize %.0f ns, featurize %.0f ns, infer %.0f ns",
		len(codes), m.layer["evm.canonicalize_ns"], featNs, inferNs)
	return nil
}

// replayCalldata times the payload model's featurizer over calldata.
func (m *measurement) replayCalldata(t trained, ds *ph.Dataset, calldata [][]byte) error {
	model, err := refit(t, ds)
	if err != nil {
		return err
	}
	fz := model.Featurizer()
	m.layer["features.calldata_featurize_ns"] = perItem(len(calldata), func(i int) { fz.Transform(calldata[i]) })
	return nil
}

// confidence is the verdict confidence a detector reports for P(phishing).
func confidence(p float64) float64 {
	if p >= 0.5 {
		return p
	}
	return 1 - p
}

// firstN caps a slice.
func firstN[T any](xs []T, n int) []T {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

package phishinghook

import (
	"context"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/phishinghook/phishinghook/internal/adversary"
	"github.com/phishinghook/phishinghook/internal/ethrpc"
	"github.com/phishinghook/phishinghook/internal/evm"
	"github.com/phishinghook/phishinghook/internal/features"
	"github.com/phishinghook/phishinghook/internal/lru"
	"github.com/phishinghook/phishinghook/internal/models"
	"github.com/phishinghook/phishinghook/internal/monitor"
)

// Verdict is one scoring decision: the predicted label, the confidence
// behind it, the model and lifecycle version that scored, and evasion
// telemetry. It is the one in-process verdict type; watchers alert on it, and
// a TxVerdict embeds it.
type Verdict = monitor.Verdict

// DetectorOption configures Train and LoadDetector.
type DetectorOption func(*detectorConfig)

type detectorConfig struct {
	seed        int64
	neural      NeuralConfig
	neuralSet   bool
	cacheSize   int
	workers     int
	rpcURL      string
	canonical   bool
	telemetry   bool
	augmentFrac float64
}

// WithDetectorSeed sets the training seed (default 1).
func WithDetectorSeed(seed int64) DetectorOption {
	return func(c *detectorConfig) { c.seed = seed }
}

// WithDetectorNeural overrides the neural sizing used to build the model.
// A loaded detector must be given the same sizing it was trained with.
func WithDetectorNeural(cfg NeuralConfig) DetectorOption {
	return func(c *detectorConfig) { c.neural = cfg; c.neuralSet = true }
}

// WithFeatureCache sizes the LRU bytecode→score cache in entries
// (0 disables caching). Each entry memoizes one bytecode digest's model
// output — a hit skips featurization and inference entirely — so entries
// are ~100 bytes regardless of the featurizer's vector size.
func WithFeatureCache(entries int) DetectorOption {
	return func(c *detectorConfig) { c.cacheSize = entries }
}

// WithScoreWorkers bounds ScoreBatch concurrency (default GOMAXPROCS).
func WithScoreWorkers(n int) DetectorOption {
	return func(c *detectorConfig) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithRPC attaches a JSON-RPC endpoint so ScoreAddress can fetch bytecode.
func WithRPC(url string) DetectorOption {
	return func(c *detectorConfig) { c.rpcURL = url }
}

// WithCanonicalFeatures featurizes only the code reachable from the entry
// point, with push widths and jump-target encodings normalized. Dead-code
// islands, width games and benign grafts then collapse back onto the
// original program before the model ever sees them. Applies to both
// training and serving; the choice is persisted by Save so a loaded
// detector always featurizes the way it was trained.
func WithCanonicalFeatures() DetectorOption {
	return func(c *detectorConfig) { c.canonical = true }
}

// WithEvasionTelemetry computes per-verdict evasion telemetry: the
// dead-code ratio, the raw-vs-canonical score divergence, and a suspect
// flag (also raised for EIP-1167 minimal proxies, whose behaviour lives at
// another address entirely). Telemetry costs one extra featurize+infer on
// cache misses; cache hits stay allocation-free.
func WithEvasionTelemetry() DetectorOption {
	return func(c *detectorConfig) { c.telemetry = true }
}

// WithAdversarialAugment extends the training set with mutated clones of
// the given fraction of phishing samples (see adversary.Augment), teaching
// raw-feature models that dead-code dilution and encoding noise still mean
// phishing. Ignored at load time — augmentation is a training-time choice.
func WithAdversarialAugment(frac float64) DetectorOption {
	return func(c *detectorConfig) { c.augmentFrac = frac }
}

func resolveDetectorConfig(opts []DetectorOption) detectorConfig {
	cfg := detectorConfig{
		seed:      1,
		cacheSize: autoCacheSize,
		workers:   runtime.GOMAXPROCS(0),
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if !cfg.neuralSet {
		cfg.neural = models.DefaultNeuralConfig(cfg.seed)
	}
	return cfg
}

// Detector is a fitted model + featurizer pair serving read-only inference.
// Score, ScoreAddress and ScoreBatch are safe for concurrent use from many
// goroutines; one Detector is meant to be shared by a whole process.
type Detector struct {
	modelName string
	neural    NeuralConfig
	scorer    models.Scorer
	fz        features.Featurizer
	cache     *lru.Sharded[scoreMemo]
	workers   int
	rpc       *ethrpc.MultiClient
	canonical bool
	telemetry bool
	scored    atomic.Uint64
	adv       adversaryCounters
}

// scoreMemo is the cache value: everything a verdict needs, so a hit skips
// featurization, inference and canonicalization alike.
type scoreMemo struct {
	p       float64 // serving probability (canonical when enabled)
	dead    float64 // dead-code ratio
	div     float64 // |raw − canonical| score divergence
	suspect bool
	proxy   bool
}

// adversaryCounters aggregates serving-time evasion telemetry for the
// /metrics endpoint. Ratios are accumulated in micro-units so the hot path
// stays lock-free.
type adversaryCounters struct {
	scored    atomic.Uint64 // verdicts with telemetry computed
	suspects  atomic.Uint64
	proxies   atomic.Uint64
	deadMicro atomic.Uint64 // Σ dead-code ratio × 1e6
	divMicro  atomic.Uint64 // Σ score divergence × 1e6
}

// AdversaryStats is a snapshot of serving-time evasion telemetry.
type AdversaryStats struct {
	// Scored counts verdicts that carried telemetry; Suspects those
	// flagged, Proxies the EIP-1167 minimal proxies among them.
	Scored, Suspects, Proxies uint64
	// MeanDeadRatio and MeanDivergence average the respective telemetry
	// over all scored verdicts (0 when nothing was scored).
	MeanDeadRatio, MeanDivergence float64
}

// AdversaryStats reports cumulative evasion telemetry. All zeros unless the
// detector runs with WithEvasionTelemetry.
func (d *Detector) AdversaryStats() AdversaryStats {
	s := AdversaryStats{
		Scored:   d.adv.scored.Load(),
		Suspects: d.adv.suspects.Load(),
		Proxies:  d.adv.proxies.Load(),
	}
	if s.Scored > 0 {
		s.MeanDeadRatio = float64(d.adv.deadMicro.Load()) / 1e6 / float64(s.Scored)
		s.MeanDivergence = float64(d.adv.divMicro.Load()) / 1e6 / float64(s.Scored)
	}
	return s
}

// Suspect thresholds. Clean contracts from both classes measure dead-code
// ratios around 0.03 (max ≈ 0.08, the metadata trailer), and their
// raw-vs-canonical scores track closely; mutants that matter push one of
// these well past 0.3.
const (
	deadRatioSuspect  = 0.30
	divergenceSuspect = 0.30
)

// canonScratch pools canonicalization buffers so telemetry/canonical
// scoring on cache misses reuses one slab per P instead of allocating.
var canonScratch = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Train fits the spec's model on the dataset and returns a serving-ready
// Detector — the "train once" half of the API; Score and friends are the
// "score millions" half.
func Train(spec ModelSpec, ds *Dataset, opts ...DetectorOption) (*Detector, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("phishinghook: train %s: empty dataset", spec.Name)
	}
	cfg := resolveDetectorConfig(opts)
	clf := spec.New(cfg.seed, cfg.neural)
	scorer, ok := clf.(models.Scorer)
	if !ok {
		return nil, fmt.Errorf("phishinghook: model %s does not support serving", spec.Name)
	}
	if cfg.augmentFrac > 0 {
		ds = adversary.Augment(ds, cfg.augmentFrac, cfg.seed)
	}
	if cfg.canonical {
		ds = canonicalizeDataset(ds)
	}
	if err := clf.Fit(ds); err != nil {
		return nil, fmt.Errorf("phishinghook: train %s: %w", spec.Name, err)
	}
	return newDetector(spec.Name, scorer, cfg)
}

// canonicalizeDataset rewrites every sample's bytecode to canonical form so
// a canonical-features detector is fit on exactly what it will featurize at
// serving time.
func canonicalizeDataset(ds *Dataset) *Dataset {
	out := &Dataset{Samples: make([]Sample, len(ds.Samples))}
	copy(out.Samples, ds.Samples)
	for i := range out.Samples {
		canon, _ := evm.Canonicalize(out.Samples[i].Bytecode, nil)
		out.Samples[i].Bytecode = canon
	}
	return out
}

// autoCacheSize marks "use the default entry count". Entries hold only a
// digest key and a memoized probability (~100 bytes), so the default is a
// flat count rather than the old per-feature-size memory derivation.
const (
	autoCacheSize    = -1
	defaultCacheSize = 4096
)

func newDetector(name string, scorer models.Scorer, cfg detectorConfig) (*Detector, error) {
	fz := scorer.Featurizer()
	if fz == nil {
		return nil, fmt.Errorf("phishinghook: model %s has no fitted featurizer", name)
	}
	entries := cfg.cacheSize
	if entries == autoCacheSize {
		entries = defaultCacheSize
	}
	d := &Detector{
		modelName: name,
		neural:    cfg.neural,
		scorer:    scorer,
		fz:        fz,
		cache:     lru.NewSharded[scoreMemo](entries),
		workers:   cfg.workers,
		canonical: cfg.canonical,
		telemetry: cfg.telemetry,
	}
	if cfg.rpcURL != "" {
		rpc, err := ethrpc.NewMultiClient([]string{cfg.rpcURL})
		if err != nil {
			return nil, err
		}
		d.rpc = rpc
	}
	return d, nil
}

// ModelName returns the underlying model's display name.
func (d *Detector) ModelName() string { return d.modelName }

// FeatureDim returns the fitted featurizer's vector length.
func (d *Detector) FeatureDim() int { return d.fz.Dim() }

// CacheStats returns cumulative score-cache hits and misses (a hit skips
// featurization and inference for that bytecode).
func (d *Detector) CacheStats() (hits, misses uint64) { return d.cache.Stats() }

// ScoreCount returns how many bytecodes this detector has scored (every
// Score/ScoreHex/ScoreAddress/ScoreBatch element counts once on success).
func (d *Detector) ScoreCount() uint64 { return d.scored.Load() }

// scoreFor resolves the score memo for one bytecode, memoizing the model
// output through the sharded LRU. Models are deterministic read-only
// functions of the features, so caching the memo makes a hit skip the
// featurizer, the ensemble and — in canonical/telemetry modes — the
// canonicalizer too; the SHA-256 digest keys the cache directly ([32]byte,
// no string conversion), so that hit allocates nothing. The key is always
// the digest of the RAW bytes: canonicalization happens only on a miss, so
// the hardened hot path keeps the untouched-cache profile.
func (d *Detector) scoreFor(code []byte) (scoreMemo, error) {
	key := sha256.Sum256(code)
	if m, ok := d.cache.Get(key); ok {
		return m, nil
	}
	m, err := d.computeMemo(code)
	if err != nil {
		return scoreMemo{}, err
	}
	d.cache.Add(key, m)
	return m, nil
}

// computeMemo does the actual featurize+infer work on a cache miss.
func (d *Detector) computeMemo(code []byte) (scoreMemo, error) {
	w := d.featurize(code)
	for s := 0; s < w.n; s++ {
		p, err := d.scorer.ScoreFeatures(w.xs[s])
		if err != nil {
			return scoreMemo{}, err
		}
		w.ps[s] = p
	}
	return d.finishMemo(&w), nil
}

// memoWork is one cache miss between featurization and inference: the
// feature vectors to score and what canonicalization measured.
type memoWork struct {
	// xs[0] is the canonical vector in canonical or telemetry mode and the
	// raw one otherwise; xs[1] is the raw vector telemetry compares it to.
	xs [2][]float64
	ps [2]float64 // model output for each vector
	n  int        // vectors in use
	m  scoreMemo  // dead and proxy filled in
}

// featurize builds a miss's feature vectors.
func (d *Detector) featurize(code []byte) memoWork {
	var w memoWork
	if !d.canonical && !d.telemetry {
		w.xs[0], w.n = d.fz.Transform(code), 1
		return w
	}
	bufp := canonScratch.Get().(*[]byte)
	canon, dead := evm.Canonicalize(code, (*bufp)[:0])
	w.m.dead = dead
	w.xs[0], w.n = d.fz.Transform(canon), 1
	if d.telemetry {
		// Matched on the canonical form so push-width and dead-code games
		// played on a proxy frame can't slip it past the flag.
		w.m.proxy = evm.IsCanonicalProxy(canon)
		w.xs[1], w.n = d.fz.Transform(code), 2
	}
	if cap(canon) > cap(*bufp) {
		*bufp = canon
	}
	canonScratch.Put(bufp)
	return w
}

// finishMemo turns a scored miss into its memo.
func (d *Detector) finishMemo(w *memoWork) scoreMemo {
	m := w.m
	m.p = w.ps[0]
	if d.telemetry {
		canonP, rawP := w.ps[0], w.ps[1]
		if !d.canonical {
			m.p = rawP
		}
		m.div = rawP - canonP
		if m.div < 0 {
			m.div = -m.div
		}
		m.suspect = m.dead >= deadRatioSuspect || m.div >= divergenceSuspect || m.proxy
	}
	return m
}

// errEmptyBytecode is the error Score and ScoreBatch return for an empty
// bytecode.
var errEmptyBytecode = errors.New("phishinghook: score: empty bytecode")

// Score classifies one deployed bytecode.
func (d *Detector) Score(ctx context.Context, code []byte) (Verdict, error) {
	if err := ctx.Err(); err != nil {
		return Verdict{}, err
	}
	if len(code) == 0 {
		return Verdict{}, errEmptyBytecode
	}
	m, err := d.scoreFor(code)
	if err != nil {
		return Verdict{}, fmt.Errorf("phishinghook: score: %w", err)
	}
	return d.verdict(m), nil
}

// verdict builds the verdict for one scored bytecode and counts it.
func (d *Detector) verdict(m scoreMemo) Verdict {
	v := Verdict{Label: Benign, Confidence: 1 - m.p, ModelName: d.modelName}
	if m.p >= 0.5 {
		v.Label, v.Confidence = Phishing, m.p
	}
	if d.telemetry {
		v.DeadCodeRatio = m.dead
		v.ScoreDivergence = m.div
		v.EvasionSuspect = m.suspect
		d.adv.scored.Add(1)
		d.adv.deadMicro.Add(uint64(m.dead * 1e6))
		d.adv.divMicro.Add(uint64(m.div * 1e6))
		if m.suspect {
			d.adv.suspects.Add(1)
		}
		if m.proxy {
			d.adv.proxies.Add(1)
		}
	}
	d.scored.Add(1)
	return v
}

// ScoreHex classifies 0x-prefixed hex bytecode.
func (d *Detector) ScoreHex(ctx context.Context, hexCode string) (Verdict, error) {
	code, err := DecodeHex(hexCode)
	if err != nil {
		return Verdict{}, err
	}
	return d.Score(ctx, code)
}

// ScoreAddress fetches the address's deployed bytecode over JSON-RPC (the
// BEM path) and classifies it. The detector needs an endpoint from WithRPC.
func (d *Detector) ScoreAddress(ctx context.Context, address string) (Verdict, error) {
	if d.rpc == nil {
		return Verdict{}, fmt.Errorf("phishinghook: ScoreAddress: no RPC endpoint (use WithRPC)")
	}
	addr, err := parseAddr(address)
	if err != nil {
		return Verdict{}, err
	}
	code, err := d.rpc.GetCode(ctx, addr)
	if err != nil {
		return Verdict{}, fmt.Errorf("phishinghook: ScoreAddress %s: %w", address, err)
	}
	if len(code) == 0 {
		return Verdict{}, fmt.Errorf("phishinghook: ScoreAddress %s: no deployed code", address)
	}
	return d.Score(ctx, code)
}

// scoreBlock bounds how many bytecodes ScoreBatch featurizes and sorts at
// once, which bounds its feature memory and how long a cancelled context
// waits for the work in flight.
const scoreBlock = 256

// ScoreBatch classifies many bytecodes, preserving order. Cache hits are
// answered inline. The misses are featurized, their feature vectors sorted
// lexicographically and cut into one contiguous run per worker, and each
// run is scored with models.ScoreRun: a GPT-2α run then computes each
// window only from the first token where it differs from its neighbour.
// Verdicts, the cache and the counters come out exactly as scoring each
// bytecode with Score in order would leave them: a bytecode repeating an
// earlier miss reads that miss's memo back through the cache. An empty
// bytecode fails the whole batch before any work, and a cancelled context
// stops it at the next block of scoreBlock bytecodes.
func (d *Detector) ScoreBatch(ctx context.Context, codes [][]byte) ([]Verdict, error) {
	out := make([]Verdict, len(codes))
	if len(codes) == 0 {
		return out, ctx.Err()
	}
	for _, code := range codes {
		if len(code) == 0 {
			return nil, errEmptyBytecode
		}
	}
	for lo := 0; lo < len(codes); lo += scoreBlock {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := min(lo+scoreBlock, len(codes))
		if err := d.scoreBlock(codes[lo:hi], out[lo:hi]); err != nil {
			return nil, fmt.Errorf("phishinghook: score: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// batchMiss is the first occurrence of a bytecode a block missed in the
// cache.
type batchMiss struct {
	at   int // index in the block
	key  [32]byte
	work memoWork
	memo scoreMemo
}

// scoreBlock scores one block of ScoreBatch into out.
func (d *Detector) scoreBlock(codes [][]byte, out []Verdict) error {
	var (
		misses []batchMiss
		first  map[[32]byte]int // key → index in misses
		repeat [][2]int         // {block index, index in misses}
	)
	for i, code := range codes {
		key := sha256.Sum256(code)
		if j, ok := first[key]; ok {
			repeat = append(repeat, [2]int{i, j})
			continue
		}
		if m, ok := d.cache.Get(key); ok {
			out[i] = d.verdict(m)
			continue
		}
		if len(codes) > 1 {
			if first == nil {
				first = make(map[[32]byte]int)
			}
			first[key] = len(misses)
		}
		misses = append(misses, batchMiss{at: i, key: key})
	}
	if len(misses) == 0 {
		return nil
	}

	d.fanOut(len(misses), func(lo, hi int) error {
		for k := lo; k < hi; k++ {
			misses[k].work = d.featurize(codes[misses[k].at])
		}
		return nil
	})
	// Every vector the misses need, in lexicographic order; slot k*2+s is
	// vector s of miss k.
	var slots []int
	for k := range misses {
		for s := 0; s < misses[k].work.n; s++ {
			slots = append(slots, k*2+s)
		}
	}
	vec := func(slot int) []float64 { return misses[slot/2].work.xs[slot%2] }
	slices.SortFunc(slots, func(a, b int) int { return slices.Compare(vec(a), vec(b)) })
	xs := make([][]float64, len(slots))
	for j, slot := range slots {
		xs[j] = vec(slot)
	}
	ps := make([]float64, len(xs))
	if err := d.fanOut(len(xs), func(lo, hi int) error {
		return models.ScoreRun(d.scorer, xs[lo:hi], ps[lo:hi])
	}); err != nil {
		return err
	}
	for j, slot := range slots {
		misses[slot/2].work.ps[slot%2] = ps[j]
	}

	for k := range misses {
		miss := &misses[k]
		miss.memo = d.finishMemo(&miss.work)
		d.cache.Add(miss.key, miss.memo)
		out[miss.at] = d.verdict(miss.memo)
	}
	for _, r := range repeat {
		miss := &misses[r[1]]
		m, ok := d.cache.Get(miss.key)
		if !ok { // a disabled cache, or the entry was already evicted
			m = miss.memo
		}
		out[r[0]] = d.verdict(m)
	}
	return nil
}

// fanOut cuts [0, n) into one contiguous range of equal size per worker
// and runs fn on each, inline when there is only one, returning the first
// error.
func (d *Detector) fanOut(n int, fn func(lo, hi int) error) error {
	w := min(d.workers, n)
	if w <= 1 {
		return fn(0, n)
	}
	errs := make([]error, w)
	var wg sync.WaitGroup
	for r := 0; r < w; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = fn(r*n/w, (r+1)*n/w)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// detectorFile is the gob envelope Save writes. Canonical rides along
// without a version bump: gob leaves absent fields at their zero value, so
// files written before the flag existed load as raw-feature detectors —
// which is what they were.
type detectorFile struct {
	Magic     string
	Version   int
	Model     string
	Neural    NeuralConfig
	Canonical bool
	Clf       []byte
}

const (
	detectorMagic   = "phishinghook-detector"
	detectorVersion = 1
)

// Save serializes the fitted detector (model name, neural sizing,
// featurizer state and learned parameters) for LoadDetector.
func (d *Detector) Save(w io.Writer) error {
	p, ok := d.scorer.(models.Persistable)
	if !ok {
		return fmt.Errorf("phishinghook: model %s is not persistable", d.modelName)
	}
	clf, err := p.MarshalBinary()
	if err != nil {
		return fmt.Errorf("phishinghook: save %s: %w", d.modelName, err)
	}
	return gob.NewEncoder(w).Encode(detectorFile{
		Magic:     detectorMagic,
		Version:   detectorVersion,
		Model:     d.modelName,
		Neural:    d.neural,
		Canonical: d.canonical,
		Clf:       clf,
	})
}

// LoadDetector rebuilds a detector saved by Save. Serving options
// (WithFeatureCache, WithScoreWorkers, WithRPC, WithEvasionTelemetry)
// apply; the neural sizing and featurization mode are restored from the
// file.
func LoadDetector(r io.Reader, opts ...DetectorOption) (*Detector, error) {
	var f detectorFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("phishinghook: load detector: %w", err)
	}
	if f.Magic != detectorMagic {
		return nil, fmt.Errorf("phishinghook: load detector: not a detector file")
	}
	if f.Version != detectorVersion {
		return nil, fmt.Errorf("phishinghook: load detector: unsupported version %d", f.Version)
	}
	spec, err := models.SpecByName(f.Model)
	if err != nil {
		return nil, fmt.Errorf("phishinghook: load detector: %w", err)
	}
	cfg := resolveDetectorConfig(opts)
	cfg.neural = f.Neural
	// Featurization mode follows the training run, not the load options: a
	// model fit on canonical features must see canonical features forever.
	cfg.canonical = f.Canonical
	clf := spec.New(f.Neural.Seed, f.Neural)
	p, ok := clf.(models.Persistable)
	if !ok {
		return nil, fmt.Errorf("phishinghook: model %s is not persistable", f.Model)
	}
	if err := p.UnmarshalBinary(f.Clf); err != nil {
		return nil, fmt.Errorf("phishinghook: load %s: %w", f.Model, err)
	}
	scorer, ok := clf.(models.Scorer)
	if !ok {
		return nil, fmt.Errorf("phishinghook: model %s does not support serving", f.Model)
	}
	return newDetector(f.Model, scorer, cfg)
}

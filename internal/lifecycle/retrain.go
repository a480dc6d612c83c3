package lifecycle

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/phishinghook/phishinghook/internal/stats"
)

// DriftReport is one drift evaluation of the live score window against the
// reference distribution.
type DriftReport struct {
	// PSI is the Population Stability Index between reference and window.
	PSI float64 `json:"psi"`
	// KSStat and KSP are the two-sample Kolmogorov-Smirnov distance and
	// p-value.
	KSStat float64 `json:"ks_stat"`
	KSP    float64 `json:"ks_p"`
	// Window and Reference are the sample sizes compared.
	Window    int `json:"window"`
	Reference int `json:"reference"`
	// Drifted reports whether the configured trigger fired (PSI above
	// threshold, or KS p below alpha when enabled).
	Drifted bool `json:"drifted"`
}

// TrainFunc performs one retraining round. It runs on a background goroutine
// owned by the Retrainer; implementations train on recent labeled data,
// store the result and install it as challenger. A non-nil error is counted
// and retried after the cooldown.
type TrainFunc func(ctx context.Context, trigger DriftReport) error

// RetrainerConfig tunes a Retrainer. Train is required.
type RetrainerConfig struct {
	// Train is invoked (single-flight) when drift is detected.
	Train TrainFunc
	// Window is the sliding window of most recent live scores compared
	// against the reference (default 2048).
	Window int
	// MinObserve is how many scores must accumulate before the first drift
	// check (default Window/2).
	MinObserve int
	// CheckEvery runs a drift evaluation every this many observations once
	// MinObserve is reached (default Window/4).
	CheckEvery int
	// Bins is the PSI bin count over [0,1] (default 10).
	Bins int
	// PSIThreshold fires the trigger (default 0.25 — the standard "the
	// population has moved" bar).
	PSIThreshold float64
	// KSAlpha, when > 0, also fires the trigger when the KS p-value drops
	// below it.
	KSAlpha float64
	// Cooldown is the minimum gap between retraining rounds (default 1m),
	// so a persistently drifted window cannot stack trainings.
	Cooldown time.Duration
}

func (c *RetrainerConfig) fillDefaults() error {
	if c.Train == nil {
		return fmt.Errorf("lifecycle: RetrainerConfig needs a Train function")
	}
	if c.Window <= 0 {
		c.Window = 2048
	}
	if c.MinObserve <= 0 {
		c.MinObserve = c.Window / 2
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = c.Window / 4
	}
	if c.CheckEvery < 1 {
		c.CheckEvery = 1
	}
	if c.Bins <= 0 {
		c.Bins = 10
	}
	if c.PSIThreshold <= 0 {
		c.PSIThreshold = 0.25
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Minute
	}
	return nil
}

// RetrainerStats snapshots a Retrainer's counters.
type RetrainerStats struct {
	// Observed counts scores fed in; WindowFill is the current window size.
	Observed   uint64 `json:"observed"`
	WindowFill int    `json:"window_fill"`
	// Checks counts drift evaluations, Triggers how many fired, Retrains
	// how many training rounds completed, TrainErrors how many failed.
	Checks      uint64 `json:"checks"`
	Triggers    uint64 `json:"triggers"`
	Retrains    uint64 `json:"retrains"`
	TrainErrors uint64 `json:"train_errors"`
	// Retraining reports whether a training round is in flight.
	Retraining bool `json:"retraining"`
	// LastPSI and LastKSP are the most recent evaluation's results.
	LastPSI float64 `json:"last_psi"`
	LastKSP float64 `json:"last_ks_p"`
}

// Retrainer watches a live stream of detector scores for distribution shift
// against a reference sample and runs the configured TrainFunc in the
// background when the shift crosses the trigger. Observe is cheap (a ring
// write under a mutex) and safe for concurrent use from score workers.
type Retrainer struct {
	cfg RetrainerConfig

	mu         sync.Mutex
	ref        []float64
	ring       []float64
	ringN      int // filled entries
	ringAt     int // next write position
	sinceCheck int
	lastTrain  time.Time
	lastPSI    float64
	lastKSP    float64

	retraining  atomic.Bool
	checking    atomic.Bool
	recheck     atomic.Bool // a check fell due; checkLoop runs one more before exiting
	observed    atomic.Uint64
	checks      atomic.Uint64
	triggers    atomic.Uint64
	retrains    atomic.Uint64
	trainErrors atomic.Uint64
}

// NewRetrainer builds a Retrainer. SetReference must be called (typically
// with the champion's scores on its own training set) before drift checks
// can fire.
func NewRetrainer(cfg RetrainerConfig) (*Retrainer, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	return &Retrainer{cfg: cfg, ring: make([]float64, cfg.Window)}, nil
}

// SetReference installs the expected score distribution and clears the live
// window — called at deploy time and again after every promote, since a new
// champion defines a new "normal".
func (r *Retrainer) SetReference(scores []float64) {
	r.mu.Lock()
	r.ref = append([]float64(nil), scores...)
	r.ringN, r.ringAt, r.sinceCheck = 0, 0, 0
	r.mu.Unlock()
}

// Observe feeds one live score. Every CheckEvery observations (once the
// window holds MinObserve scores) it schedules a drift evaluation and, when
// the trigger fires, a background training round. Observe itself only
// writes one ring slot under the mutex — the PSI/KS evaluation (sample
// copies plus two sorts) runs on a background goroutine, never on the
// caller's scoring path, honoring the Swappable score-hook contract.
// Checks are single-flight: due points that fall while one runs coalesce
// into one trailing check on the newest window.
func (r *Retrainer) Observe(ctx context.Context, p float64) {
	r.observed.Add(1)
	r.mu.Lock()
	r.ring[r.ringAt] = p
	r.ringAt = (r.ringAt + 1) % len(r.ring)
	if r.ringN < len(r.ring) {
		r.ringN++
	}
	r.sinceCheck++
	due := len(r.ref) > 0 && r.ringN >= r.cfg.MinObserve && r.sinceCheck >= r.cfg.CheckEvery
	if due {
		r.sinceCheck = 0
	}
	r.mu.Unlock()
	if !due {
		return
	}
	r.recheck.Store(true)
	if r.checking.CompareAndSwap(false, true) {
		go r.checkLoop(ctx)
	}
}

// checkLoop runs drift checks while due points keep arriving; the caller
// holds the checking flag. A due point that lands after the loop clears
// recheck but before it drops the flag is caught by the final load: either
// the loop takes the flag back, or that due point's own CompareAndSwap did.
func (r *Retrainer) checkLoop(ctx context.Context) {
	for {
		r.recheck.Store(false)
		if rep, err := r.Check(); err == nil && rep.Drifted {
			r.TriggerAsync(ctx, rep)
		}
		r.checking.Store(false)
		if !r.recheck.Load() || !r.checking.CompareAndSwap(false, true) {
			return
		}
	}
}

// Check evaluates drift on the current window without side effects beyond
// the counters. It is exported so operators (and the sentinel example) can
// poll drift on their own schedule.
func (r *Retrainer) Check() (DriftReport, error) {
	r.mu.Lock()
	ref := append([]float64(nil), r.ref...)
	win := r.windowLocked()
	r.mu.Unlock()
	if len(ref) == 0 {
		return DriftReport{}, fmt.Errorf("lifecycle: drift check without a reference distribution")
	}
	if len(win) == 0 {
		return DriftReport{}, fmt.Errorf("lifecycle: drift check with an empty window")
	}
	r.checks.Add(1)
	rep, err := Drift(ref, win, r.cfg.Bins, r.cfg.PSIThreshold, r.cfg.KSAlpha)
	if err != nil {
		return DriftReport{}, err
	}
	r.mu.Lock()
	r.lastPSI, r.lastKSP = rep.PSI, rep.KSP
	r.mu.Unlock()
	return rep, nil
}

// Drift evaluates the PSI and KS shift of a live score window against a
// reference sample — the one-shot form of the Retrainer's check, used by
// the retrain CLI's drift gate. Scores are probabilities, binned over
// [0,1]; ksAlpha <= 0 disables the KS trigger.
func Drift(reference, window []float64, bins int, psiThreshold, ksAlpha float64) (DriftReport, error) {
	if bins <= 0 {
		bins = 10
	}
	if psiThreshold <= 0 {
		psiThreshold = 0.25
	}
	rep := DriftReport{Window: len(window), Reference: len(reference)}
	psi, err := stats.PSI(reference, window, bins, 0, 1)
	if err != nil {
		return DriftReport{}, err
	}
	rep.PSI = psi
	d, p, err := stats.KolmogorovSmirnov(reference, window)
	if err != nil {
		return DriftReport{}, err
	}
	rep.KSStat, rep.KSP = d, p
	rep.Drifted = psi >= psiThreshold || (ksAlpha > 0 && p < ksAlpha)
	return rep, nil
}

// windowLocked copies the ring's filled entries; callers hold r.mu.
func (r *Retrainer) windowLocked() []float64 {
	out := make([]float64, 0, r.ringN)
	if r.ringN < len(r.ring) {
		out = append(out, r.ring[:r.ringN]...)
		return out
	}
	out = append(out, r.ring[r.ringAt:]...)
	return append(out, r.ring[:r.ringAt]...)
}

// TriggerAsync starts a background training round for the given report,
// unless one is already in flight or the cooldown has not elapsed. It
// reports whether a round was started.
func (r *Retrainer) TriggerAsync(ctx context.Context, rep DriftReport) bool {
	if !r.admitTrigger() {
		return false
	}
	go func() { _ = r.runTrain(ctx, rep) }()
	return true
}

// Retrain runs one training round synchronously (the CLI and example path).
// It respects the same single-flight guard as TriggerAsync.
func (r *Retrainer) Retrain(ctx context.Context, rep DriftReport) error {
	if !r.admitTrigger() {
		return fmt.Errorf("lifecycle: retrain already in flight or cooling down")
	}
	return r.runTrain(ctx, rep)
}

// admitTrigger enforces single-flight + cooldown; on admission the
// retraining flag is held until runTrain completes.
func (r *Retrainer) admitTrigger() bool {
	r.mu.Lock()
	cooled := r.lastTrain.IsZero() || time.Since(r.lastTrain) >= r.cfg.Cooldown
	r.mu.Unlock()
	if !cooled {
		return false
	}
	if !r.retraining.CompareAndSwap(false, true) {
		return false
	}
	r.triggers.Add(1)
	return true
}

func (r *Retrainer) runTrain(ctx context.Context, rep DriftReport) error {
	defer r.retraining.Store(false)
	err := r.cfg.Train(ctx, rep)
	r.mu.Lock()
	r.lastTrain = time.Now()
	r.mu.Unlock()
	if err != nil {
		r.trainErrors.Add(1)
		return err
	}
	r.retrains.Add(1)
	return nil
}

// Stats snapshots the retrainer's counters.
func (r *Retrainer) Stats() RetrainerStats {
	r.mu.Lock()
	fill := r.ringN
	psi, ksp := r.lastPSI, r.lastKSP
	r.mu.Unlock()
	return RetrainerStats{
		Observed:    r.observed.Load(),
		WindowFill:  fill,
		Checks:      r.checks.Load(),
		Triggers:    r.triggers.Load(),
		Retrains:    r.retrains.Load(),
		TrainErrors: r.trainErrors.Load(),
		Retraining:  r.retraining.Load(),
		LastPSI:     psi,
		LastKSP:     ksp,
	}
}

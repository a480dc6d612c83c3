package monitor

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/phishinghook/phishinghook/internal/chain"
)

// CodeFetcher is the slice of the RPC plane the pipeline drives: one batched
// bytecode fetch. *ethrpc.MultiClient satisfies it over one node or many,
// and tests substitute fakes.
type CodeFetcher interface {
	GetCodeBatch(ctx context.Context, addrs []chain.Address) ([][]byte, error)
}

// PipelineConfig tunes the shared fetch→dedup→score pipeline.
type PipelineConfig struct {
	// QueueSize bounds the fetch→score queue (default 1024); it is the
	// pipeline's memory bound.
	QueueSize int
	// ScoreWorkers sizes the score pool (default GOMAXPROCS).
	ScoreWorkers int
	// Fetchers sizes the bytecode-fetch pool (default 16) — fetch round
	// trips dominate wall time, so fetching overlaps scoring.
	Fetchers int
	// FetchBatch is how many eth_getCode calls ride one JSON-RPC 2.0 batch
	// request (default 64).
	FetchBatch int
	// Threshold is the minimum P(phishing) that fires an alert
	// (default 0.5).
	Threshold float64
	// DropWhenFull sheds deployments (with drop accounting) instead of
	// blocking the fetch pool when the score queue is full.
	DropWhenFull bool
	// Sinks receive alerts. Sink errors are counted, never fatal.
	Sinks []Sink
}

func (c *PipelineConfig) fillDefaults() {
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.ScoreWorkers <= 0 {
		c.ScoreWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Fetchers <= 0 {
		c.Fetchers = 16
	}
	if c.FetchBatch <= 0 {
		c.FetchBatch = 64
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
}

// scoreJob is one deployment queued for scoring.
type scoreJob struct {
	addr  string
	hash  [32]byte
	code  []byte
	head  uint64 // scan-range head, recorded on the alert
	state *scanState
}

// fetchChunk is one batched eth_getCode unit of work. Chunks and their
// address buffers are pooled: at chain-backfill volume, re-slicing per scan
// is the difference between a zero-allocation steady state and two slice
// headers plus backing arrays per batch.
type fetchChunk struct {
	strs  []string
	addrs []chain.Address
	head  uint64
	state *scanState
}

// scanState tracks one Scan call's completion and failure. Pooled: a
// long-running watcher performs one Scan per poll.
type scanState struct {
	chunks sync.WaitGroup // chunks dispatched but not yet fetched
	jobs   sync.WaitGroup // score jobs enqueued but not yet judged
	failed atomic.Bool    // a deployment failed to score

	mu       sync.Mutex
	fetchErr error // first chunk-level fetch failure
}

func (st *scanState) recordFetchErr(err error) {
	st.mu.Lock()
	if st.fetchErr == nil {
		st.fetchErr = err
	}
	st.mu.Unlock()
}

// maxScoreRetries bounds rescans for a bytecode that keeps failing to score:
// after this many consecutive failures the hash is abandoned (kept in the
// dedup set, counted under poisoned) so one poison-pill input cannot wedge a
// cursor and stall coverage.
const maxScoreRetries = 3

// Pipeline is the staged fetch→dedup→score engine shared by the live
// Watcher and the Backfill scanner — one code path, two scenarios. Callers
// Start it once, feed it address batches via Scan (concurrently: backfill
// shards all feed the same pipeline, sharing the dedup set and the score
// pool), and Stop it after the last Scan returns.
//
// Guarantees, per Scan: every address is fetched, deduplicated by bytecode
// SHA-256 against the pipeline-wide Progress, and every unique bytecode is
// scored (or shed under the drop policy) before Scan returns. A fetch or
// score failure fails the Scan and releases the affected claims so the
// caller's rescan re-judges exactly them — scans are at-least-once, scores
// exactly-once per unique bytecode.
type Pipeline struct {
	cfg    PipelineConfig
	scorer Scorer
	rpc    CodeFetcher
	queue  chan scoreJob
	feed   chan *fetchChunk
	ctr    counters

	ctx      context.Context
	fetchers sync.WaitGroup
	scorers  sync.WaitGroup
	started  bool

	chunkPool sync.Pool
	statePool sync.Pool

	// progress is the bytecode dedup set: a hash is claimed while its job is
	// enqueued (so clones don't double-enqueue) and judged once scored.
	progress *Progress

	mu        sync.Mutex
	scoreFail map[[32]byte]int // consecutive score failures per bytecode
}

// NewPipeline builds a pipeline over the given scorer and fetch plane, with
// an in-memory dedup set.
func NewPipeline(scorer Scorer, fetch CodeFetcher, cfg PipelineConfig) (*Pipeline, error) {
	return newPipeline(scorer, fetch, cfg, NewProgress("", 0, ""))
}

// newPipeline builds a pipeline whose dedup set is the owner's progress.
func newPipeline(scorer Scorer, fetch CodeFetcher, cfg PipelineConfig, progress *Progress) (*Pipeline, error) {
	if scorer == nil {
		return nil, fmt.Errorf("monitor: nil scorer")
	}
	if fetch == nil {
		return nil, fmt.Errorf("monitor: nil code fetcher")
	}
	cfg.fillDefaults()
	p := &Pipeline{
		cfg:       cfg,
		scorer:    scorer,
		rpc:       fetch,
		queue:     make(chan scoreJob, cfg.QueueSize),
		feed:      make(chan *fetchChunk, cfg.Fetchers),
		progress:  progress,
		scoreFail: make(map[[32]byte]int),
	}
	p.chunkPool.New = func() any {
		return &fetchChunk{
			strs:  make([]string, 0, cfg.FetchBatch),
			addrs: make([]chain.Address, 0, cfg.FetchBatch),
		}
	}
	p.statePool.New = func() any { return new(scanState) }
	return p, nil
}

// Start launches the fetch and score pools. ctx bounds every in-flight RPC
// and score call. Call once.
func (p *Pipeline) Start(ctx context.Context) {
	if p.started {
		panic("monitor: Pipeline.Start called twice")
	}
	p.started = true
	p.ctx = ctx
	for i := 0; i < p.cfg.Fetchers; i++ {
		p.fetchers.Add(1)
		go func() {
			defer p.fetchers.Done()
			p.fetchLoop()
		}()
	}
	for i := 0; i < p.cfg.ScoreWorkers; i++ {
		p.scorers.Add(1)
		go func() {
			defer p.scorers.Done()
			p.scoreLoop()
		}()
	}
}

// Stop drains and tears down both pools. Call after the last Scan returned;
// Stop does not interrupt in-flight work (cancel the Start context for
// that).
func (p *Pipeline) Stop() {
	if !p.started {
		return
	}
	close(p.feed)
	p.fetchers.Wait()
	close(p.queue)
	p.scorers.Wait()
}

// Scan fetches, dedups and scores every deployment in addrs (observed at
// block head), returning once all have been judged or shed. Safe to call
// from many goroutines: backfill shards feed the same pools concurrently.
func (p *Pipeline) Scan(ctx context.Context, addrs []string, head uint64) error {
	p.ctr.contractsSeen.Add(uint64(len(addrs)))
	st := p.statePool.Get().(*scanState)
	st.failed.Store(false)
	st.fetchErr = nil
	defer p.statePool.Put(st)

	cur := p.chunkPool.Get().(*fetchChunk)
	aborted := false
	for _, a := range addrs {
		var parsed chain.Address
		if err := chain.ParseAddressInto(&parsed, a); err != nil {
			p.ctr.errors.Add(1)
			continue
		}
		cur.strs = append(cur.strs, a)
		cur.addrs = append(cur.addrs, parsed)
		if len(cur.addrs) >= p.cfg.FetchBatch {
			if cur = p.dispatch(ctx, cur, st, head); cur == nil {
				aborted = true
				break
			}
		}
	}
	if !aborted && len(cur.addrs) > 0 {
		cur = p.dispatch(ctx, cur, st, head)
	}
	if cur != nil {
		p.putChunk(cur)
	}
	st.chunks.Wait()
	st.jobs.Wait()
	// Deployments must never be silently lost: a fetch or score failure
	// fails the scan so the caller's cursor stays put and the range retries
	// (failed scores were released, so the retry re-scores exactly them).
	st.mu.Lock()
	fetchErr := st.fetchErr
	st.mu.Unlock()
	if fetchErr != nil {
		return fetchErr
	}
	if st.failed.Load() {
		return fmt.Errorf("monitor: scan at head %d: a deployment failed to score", head)
	}
	return ctx.Err()
}

// dispatch hands one full chunk to the fetch pool and returns a fresh chunk
// buffer, or nil when ctx was cancelled mid-send.
func (p *Pipeline) dispatch(ctx context.Context, c *fetchChunk, st *scanState, head uint64) *fetchChunk {
	c.head = head
	c.state = st
	st.chunks.Add(1)
	select {
	case p.feed <- c:
		return p.chunkPool.Get().(*fetchChunk)
	case <-ctx.Done():
		st.chunks.Done()
		p.putChunk(c)
		return nil
	}
}

func (p *Pipeline) putChunk(c *fetchChunk) {
	c.strs = c.strs[:0]
	c.addrs = c.addrs[:0]
	c.state = nil
	p.chunkPool.Put(c)
}

// fetchLoop drains the chunk feed: one batched eth_getCode round trip per
// chunk, then per-contract dedup and enqueue.
func (p *Pipeline) fetchLoop() {
	for c := range p.feed {
		if err := p.fetchChunk(p.ctx, c); err != nil {
			c.state.recordFetchErr(err)
		}
		c.state.chunks.Done()
		p.putChunk(c)
	}
}

func (p *Pipeline) fetchChunk(ctx context.Context, c *fetchChunk) error {
	codes, err := p.rpc.GetCodeBatch(ctx, c.addrs)
	if err != nil {
		p.ctr.errors.Add(1)
		return err
	}
	for i, code := range codes {
		p.ingest(ctx, c.strs[i], code, c.head, c.state)
	}
	return nil
}

// ingest dedups one fetched deployment by SHA-256 and enqueues it under the
// configured backpressure policy.
func (p *Pipeline) ingest(ctx context.Context, a string, code []byte, head uint64, st *scanState) {
	if len(code) == 0 {
		return // self-destructed or not a contract; nothing to judge
	}
	hash := sha256.Sum256(code)
	job := scoreJob{addr: a, hash: hash, code: code, head: head, state: st}
	if p.cfg.DropWhenFull {
		// Enqueue-or-shed runs inside the claim, so a concurrent clone can
		// never record a dedup hit against a deployment that ends up shed
		// and unscored.
		shed := false
		if !p.progress.Claim(hash, func() bool {
			st.jobs.Add(1)
			select {
			case p.queue <- job:
				return true
			default:
				st.jobs.Done()
				shed = true
				return false
			}
		}) {
			if shed {
				p.ctr.dropped.Add(1)
			} else {
				p.ctr.dedupHits.Add(1)
			}
		}
		return
	}
	if !p.progress.Claim(hash, nil) {
		p.ctr.dedupHits.Add(1)
		return
	}
	st.jobs.Add(1)
	select {
	case p.queue <- job: // backpressure: block until the score pool drains
	case <-ctx.Done():
		st.jobs.Done()
		// Never scored: release the claim so the post-restart rescan
		// doesn't collapse this deployment into a dedup hit.
		p.progress.Release(hash)
	}
}

// scoreLoop drains the queue through the scorer and fires sinks.
func (p *Pipeline) scoreLoop() {
	for job := range p.queue {
		t0 := time.Now()
		v, err := p.scorer.Score(p.ctx, job.code)
		p.ctr.latency.Observe(time.Since(t0))
		if err != nil {
			p.ctr.errors.Add(1)
			// Release the claim and fail the scan: the deployment was never
			// judged, so the rescan (or a future clone) must get another
			// chance instead of collapsing into a dedup hit. After
			// maxScoreRetries consecutive failures the bytecode is a poison
			// pill: judge it unscored (persisted, never re-attempted after a
			// restart) so the range can commit and coverage continues.
			p.mu.Lock()
			p.scoreFail[job.hash]++
			abandoned := p.scoreFail[job.hash] >= maxScoreRetries
			if abandoned {
				delete(p.scoreFail, job.hash)
			}
			p.mu.Unlock()
			if abandoned {
				p.progress.Judge(job.hash, "")
				p.ctr.poisoned.Add(1)
			} else {
				p.progress.Release(job.hash)
				job.state.failed.Store(true)
			}
		} else {
			p.mu.Lock()
			delete(p.scoreFail, job.hash)
			p.mu.Unlock()
			p.progress.Judge(job.hash, v.ModelVersion)
			p.ctr.contractsScored.Add(1)
			if prob := v.PhishProb(); prob >= p.cfg.Threshold {
				p.emit(Alert{
					Address:        job.addr,
					CodeHash:       hex.EncodeToString(job.hash[:]),
					Block:          job.head,
					Confidence:     prob,
					Model:          v.ModelName,
					ModelVersion:   v.ModelVersion,
					EvasionSuspect: v.EvasionSuspect,
					Time:           time.Now(),
				})
			}
		}
		job.state.jobs.Done()
	}
}

func (p *Pipeline) emit(a Alert) {
	p.ctr.alerts.Add(1)
	for _, s := range p.cfg.Sinks {
		if err := s.Emit(a); err != nil {
			p.ctr.errors.Add(1)
		}
	}
}

// SeenUnique returns the number of judged bytecode hashes.
func (p *Pipeline) SeenUnique() int { return p.progress.SeenUnique() }

// ModelVersion returns the lifecycle version of the most recent successful
// score ("" before the first score of a versioned scorer).
func (p *Pipeline) ModelVersion() string { return p.progress.ModelVersion() }

// Stats snapshots the pipeline-owned counters. Owners (Watcher, Backfill)
// overlay their cursor on top.
func (p *Pipeline) Stats() Stats {
	return Stats{
		ModelVersion:    p.ModelVersion(),
		Polls:           p.ctr.polls.Load(),
		BlocksSeen:      p.ctr.blocksSeen.Load(),
		ContractsSeen:   p.ctr.contractsSeen.Load(),
		ContractsScored: p.ctr.contractsScored.Load(),
		DedupHits:       p.ctr.dedupHits.Load(),
		Alerts:          p.ctr.alerts.Load(),
		Dropped:         p.ctr.dropped.Load(),
		Poisoned:        p.ctr.poisoned.Load(),
		Errors:          p.ctr.errors.Load(),
		QueueDepth:      len(p.queue),
		QueueCap:        cap(p.queue),
		ScoreP50MS:      float64(p.ctr.latency.Quantile(0.50)) / float64(time.Millisecond),
		ScoreP99MS:      float64(p.ctr.latency.Quantile(0.99)) / float64(time.Millisecond),
	}
}

// Command bench is the detector system's end-to-end benchmark. It builds the
// simulated substrate from source, drives the system only through its
// public surfaces under one of four workloads, checks every verdict against
// an offline reference, and prints one JSON result line:
//
//	go run . --workload live-replay --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// twice, untraced then traced, reports the per-layer metrics and writes
// every recorded span to --trace-out. See README.md for the workloads, the
// metric definitions and how to read a trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	ph "github.com/phishinghook/phishinghook"
)

// config sizes one run. paperConfig is what the command runs; the tests use
// a laptop-scale variant.
type config struct {
	Seed         int64
	Window       time.Duration
	SetupRepeats int
	// WorkDir holds checkpoints; it must sit inside the checkout.
	WorkDir string

	// Substrate (the paper's corpus sizes).
	ObtainedPhishing, UniquePhishing, Benign, TxPerMonth int

	// live-replay: the clock releases BlocksPerTick blocks every Tick from
	// the start of LiveMonth; watchers poll every PollInterval.
	Tick          time.Duration
	BlocksPerTick uint64
	LiveMonth     int
	PollInterval  time.Duration
	TxThreshold   float64

	// score-routed: open-loop request rate. At 4,000/s the collector ran a
	// tenth of the time, so p90 sat on the edge between requests that met a
	// collection and requests that did not, and it moved by a third from run
	// to run; at 2,000/s it runs a twentieth of the time.
	Rate float64

	// batch-deep: GPT-2α sizing, training-set size, request size and how
	// many distinct bytecodes the reference re-scores.
	Deep      ph.NeuralConfig
	DeepTrain int
	DeepBatch int
	DeepCheck int

	// Replay caps how many bytecodes the traced stage replay times.
	Replay     int
	DeepReplay int
}

// clients is the load generator's concurrency: the machine has two cores,
// and the load must not out-number them.
const clients = 2

func paperConfig(seed int64, window time.Duration) config {
	deep := ph.DefaultNeuralConfig(seed)
	deep.Epochs = 1
	return config{
		Seed:             seed,
		Window:           window,
		SetupRepeats:     3,
		WorkDir:          filepath.Join(".bench_build", "work"),
		ObtainedPhishing: 17455,
		UniquePhishing:   3458,
		Benign:           3542,
		TxPerMonth:       5000,
		Tick:             5 * time.Millisecond,
		BlocksPerTick:    432,
		LiveMonth:        1,
		PollInterval:     2 * time.Millisecond,
		TxThreshold:      0.7,
		Rate:             2000,
		Deep:             deep,
		// Inference cost does not depend on the training-set size; 64
		// samples keep three GPT-2α set-ups to about 11 s of a run.
		DeepTrain:  64,
		DeepBatch:  32,
		DeepCheck:  256,
		Replay:     2000,
		DeepReplay: 64,
	}
}

// measurement is what one workload pass reports.
type measurement struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string
}

func newMeasurement() *measurement {
	return &measurement{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (m *measurement) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// fail counts n failed checks with a reason.
func (m *measurement) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	m.failed += int64(n)
	m.note("FAIL %d: %s", n, fmt.Sprintf(format, args...))
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every workload.
// README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"mem_retained_mb", "MB"},
}

// perLayer are the metrics every traced run reports; a layer a workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"explorer.list_calls", "count"},
	{"explorer.list_p50_us", "us"},
	{"explorer.list_busy_ms", "ms"},
	{"ethrpc.getcode_batches", "count"},
	{"ethrpc.getcode_items_per_batch", "count"},
	{"ethrpc.getcode_p50_us", "us"},
	{"ethrpc.getcode_busy_ms", "ms"},
	{"ethrpc.feed_polls", "count"},
	{"ethrpc.feed_items_per_poll", "count"},
	{"ethrpc.feed_p50_us", "us"},
	{"ethrpc.retries", "count"},
	{"ethrpc.rate_limited", "count"},
	{"ethrpc.timeouts", "count"},
	{"ethrpc.hedges", "count"},
	{"ethrpc.breaker_trips", "count"},
	{"monitor.dedup_hit_ratio", "ratio"},
	{"monitor.head_poll_gap_p99_ms", "ms"},
	{"monitor.head_poll_gap_max_ms", "ms"},
	{"monitor.queue_depth_max", "count"},
	{"monitor.cursor_lag_blocks_max", "count"},
	{"monitor.checkpoint_bytes", "B"},
	{"monitor.resume_ms", "ms"},
	{"monitor.sink_emit_p50_us", "us"},
	{"txstream.checkpoint_bytes", "B"},
	{"txstream.score_tx_p50_us", "us"},
	{"txstream.score_tx_p99_us", "us"},
	{"txstream.score_tx_busy_ms", "ms"},
	{"txstream.code_cache_hit_ratio", "ratio"},
	{"txstream.feed_poll_gap_p99_ms", "ms"},
	{"txstream.feed_poll_gap_max_ms", "ms"},
	{"txstream.backlog_max", "count"},
	{"txstream.stale_callee_verdicts", "count"},
	{"detector.score_calls", "count"},
	{"detector.score_p50_us", "us"},
	{"detector.score_p99_us", "us"},
	{"detector.score_busy_ms", "ms"},
	{"detector.calldata_score_p50_us", "us"},
	{"lru.hit_ratio", "ratio"},
	{"evm.disassemble_ns", "ns"},
	{"evm.canonicalize_ns", "ns"},
	{"features.featurize_ns", "ns"},
	{"features.calldata_featurize_ns", "ns"},
	{"models.infer_ns", "ns"},
	{"models.infer_share", "ratio"},
	{"serve.requests", "count"},
	{"serve.items_per_request", "count"},
	{"serve.p50_us", "us"},
	{"serve.self_us", "us"},
	{"cluster.route_p50_us", "us"},
	{"cluster.self_us", "us"},
	{"cluster.rehashes", "count"},
	{"cluster.rejected", "count"},
	{"cluster.errored", "count"},
	{"bench.generator_lag_tail_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.unaccounted_share", "ratio"},
	{"bench.latency_tail_ms", "ms"},
	{"bench.contract_tta_p50_ms", "ms"},
	{"bench.contract_tta_p90_ms", "ms"},
	{"bench.contract_tta_tail_ms", "ms"},
	{"bench.tx_tta_p50_ms", "ms"},
	{"bench.tx_tta_p90_ms", "ms"},
	{"bench.tx_tta_tail_ms", "ms"},
}

// workloads maps each workload name to the function that runs it. Each
// builds its own substrate; tr is nil for an untraced pass.
var workloads = map[string]func(cfg config, tr *tracer) (*measurement, error){
	"live-replay":    runLive,
	"score-routed":   runScoreRouted,
	"batch-deep":     runBatchDeep,
	"backfill-sweep": runBackfill,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(cli()) }

func cli() int {
	workload := flag.String("workload", "", "workload to run: live-replay, score-routed, batch-deep or backfill-sweep")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.jsonl)")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n")
		flag.PrintDefaults()
		return 2
	}
	cfg := paperConfig(*seed, time.Duration(*seconds*float64(time.Second)))
	out := *traceOut
	if out == "" {
		out = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", *workload, *seed))
	}
	res, err := measure(run, cfg, *trace == 1, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and assembles the result. A traced measurement
// runs the workload untraced first, for the tracing overhead, then traced,
// with one set-up each: set-up time is not a per-layer metric.
func measure(run func(config, *tracer) (*measurement, error), cfg config, traced bool, traceOut string) (result, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return result{}, err
	}
	defs := endToEnd
	var m *measurement
	if !traced {
		var err error
		if m, err = run(cfg, nil); err != nil {
			return result{}, err
		}
	} else {
		cfg.SetupRepeats = 1
		base, err := run(cfg, nil)
		if err != nil {
			return result{}, err
		}
		tr := newTracer()
		if m, err = run(cfg, tr); err != nil {
			return result{}, err
		}
		m.attempted += base.attempted
		m.failed += base.failed
		m.layer["bench.trace_overhead"] = ratio(m.e2e["latency_p50_ms"], base.e2e["latency_p50_ms"])
		if err := tr.write(traceOut); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
		m.note("trace: %d spans written to %s", len(tr.snapshot()), traceOut)
		defs = perLayer
	}
	res := result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	res.Correct = m.failed == 0 && m.attempted > 0
	src := m.e2e
	if traced {
		src = m.layer
	}
	for _, d := range defs {
		v, ok := src[d.name]
		if !ok && !traced {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not finite", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	report(m, res)
	return res, nil
}

// report prints the human-readable summary on standard error.
func report(m *measurement, res result) {
	for _, n := range m.notes {
		fmt.Fprintln(os.Stderr, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "attempted %d, failed %d\n", res.Attempted, res.Failed)
}

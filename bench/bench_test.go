package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	ph "github.com/phishinghook/phishinghook"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample = %g, want 0", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {120000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && float64(c.n)*(1-p/100) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %g leaves fewer than 10 samples beyond", c.n, p)
		}
	}
}

// A stalled request must be charged to every request queued behind it: an
// open loop times from the due time, not from the late send.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const interval, stall = 2 * time.Millisecond, 20 * time.Millisecond
	sched := schedule{start: time.Now().Add(time.Millisecond), interval: interval}
	samples := openLoop(sched, 4, 1, func(_, i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	if s := samples[0]; s.latency < stall || s.lag > stall/2 {
		t.Fatalf("stalled request: latency %v lag %v", s.latency, s.lag)
	}
	for i, s := range samples[1:] {
		wait := stall - time.Duration(i+1)*interval
		if s.lag < wait || s.latency < wait {
			t.Errorf("request %d behind the stall: lag %v latency %v, want both >= %v", i+1, s.lag, s.latency, wait)
		}
		if s.rtt > stall/2 {
			t.Errorf("request %d: rtt %v includes the wait", i+1, s.rtt)
		}
	}
}

// A request's verdicts count in every slice it was in flight in, in
// proportion to the overlap.
func TestSliceRatesSpreadRequestsOverTheirFlight(t *testing.T) {
	const run = slices * time.Second // one second per slice
	samples := []sample{
		// In flight for the whole run: 10 verdicts a second in every slice.
		{items: 10 * slices, latency: run, pos: float64(run)},
		// In flight over the second half of slice 0 and the first half of
		// slice 1: 4 verdicts, 2 in each.
		{items: 4, latency: time.Second, pos: float64(1500 * time.Millisecond)},
		// Failed requests carry no verdicts.
		{latency: time.Second, pos: float64(run)},
	}
	want := make([]float64, slices)
	for k := range want {
		want[k] = 10
	}
	want[0], want[1] = 12, 12
	got := sliceRates(samples, run)
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("slice rates %v, want %v", got, want)
		}
	}
}

// Outside load that slows a minority of the slices leaves the reported
// percentile alone; a slowdown of every slice moves it.
func TestSlicedPercentileTakesTheBestQuarter(t *testing.T) {
	run := func(slow func(k int) bool, factor float64) []point {
		var pts []point
		for k := 0; k < slices; k++ {
			for i := 0; i < 100; i++ {
				ms := float64(1 + i%10) // p50 5 ms, p90 9 ms
				if slow(k) {
					ms *= factor
				}
				pts = append(pts, point{pos: (float64(k) + float64(i)/100) / slices, ms: ms})
			}
		}
		return pts
	}
	burst := run(func(k int) bool { return k >= slices/2 }, 10)
	if p50, p90 := slicedPercentile(burst, 50), slicedPercentile(burst, 90); p50 != 5 || p90 != 9 {
		t.Errorf("burst over half the run: p50 %g, p90 %g; want 5, 9", p50, p90)
	}
	slower := run(func(int) bool { return true }, 2)
	if p50 := slicedPercentile(slower, 50); p50 != 10 {
		t.Errorf("every slice twice as slow: p50 %g, want 10", p50)
	}
	if got := bestQuarter([]float64{1, 2, 3, 4, 5, 6, 7, 8}, false); got != 6 {
		t.Errorf("best quarter of rates = %g, want 6", got)
	}
}

func TestReleaseLookup(t *testing.T) {
	t0 := time.Unix(0, 0)
	rel := &releases{}
	for k, head := range []uint64{100, 200, 300} {
		rel.add(head, t0.Add(time.Duration(k)*time.Second), 0)
	}
	for _, c := range []struct {
		block uint64
		want  time.Duration
		ok    bool
	}{{50, 0, true}, {100, 0, true}, {101, time.Second, true}, {300, 2 * time.Second, true}, {301, 0, false}} {
		got, ok := rel.at(c.block)
		if ok != c.ok || (ok && got.Sub(t0) != c.want) {
			t.Errorf("at(%d) = %v, %v; want %v, %v", c.block, got.Sub(t0), ok, c.want, c.ok)
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports, with the same units.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program runs %d workloads", names, len(workloads))
	}
	check := func(kind string, defs []metricDef, got map[string]string) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(defs))
		}
		for _, d := range defs {
			if got[d.name] != d.unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, program %q", kind, d.name, got[d.name], d.unit)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layer := map[string]string{}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end-to-end", endToEnd, e2e)
	check("per-layer", perLayer, layer)
}

// smallConfig is a laptop-scale run: the DefaultSimulationConfig corpus,
// one-second windows, and GPT-2α at the -nn benchmark's reduced dims.
func smallConfig(t *testing.T) config {
	sim := ph.DefaultSimulationConfig(3)
	cfg := paperConfig(sim.Seed, time.Second)
	cfg.SetupRepeats = 1
	cfg.WorkDir = t.TempDir()
	cfg.ObtainedPhishing, cfg.UniquePhishing, cfg.Benign, cfg.TxPerMonth = sim.ObtainedPhishing, sim.UniquePhishing, sim.Benign, sim.TxPerMonth
	cfg.BlocksPerTick = 2160
	cfg.Deep.Dim, cfg.Deep.Heads, cfg.Deep.Blocks = 8, 2, 1
	cfg.Deep.SeqLen, cfg.Deep.Stride = 24, 16
	cfg.Deep.ImageSide, cfg.Deep.Hidden, cfg.Deep.VocabCap = 8, 8, 128
	cfg.DeepTrain, cfg.DeepBatch, cfg.DeepCheck = 48, 8, 32
	cfg.Replay, cfg.DeepReplay = 200, 16
	return cfg
}

// Every workload runs end to end, untraced and traced, with every verdict
// matching the reference and every metric finite.
func TestSmokeEveryWorkload(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(t)
			for _, traced := range []bool{false, true} {
				res, err := measure(workloads[name], cfg, traced, filepath.Join(cfg.WorkDir, "trace.jsonl"))
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
				}
				want := len(endToEnd)
				if traced {
					want = len(perLayer)
				}
				if len(res.Metrics) != want {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), want)
				}
				for n, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: %s = %v", traced, n, m.Value)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			}
		})
	}
}

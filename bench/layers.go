package main

import (
	"fmt"
	"time"

	ph "github.com/phishinghook/phishinghook"
)

// latencyStats returns p50 and p90 as the best quarter of the run's slices,
// and the tail, pooled, at the highest percentile p with ten samples beyond
// it.
func latencyStats(pts []point) (p50, p90, p, tail float64) {
	all := make([]float64, len(pts))
	for i, pt := range pts {
		all[i] = pt.ms
	}
	p = tailPercentile(len(all))
	return slicedPercentile(pts, 50), slicedPercentile(pts, 90), p, percentile(all, p)
}

// latency reports a workload's latency samples.
func (m *measurement) latency(what string, pts []point) {
	p50, p90, p, tail := latencyStats(pts)
	m.e2e["latency_p50_ms"], m.e2e["latency_p90_ms"], m.layer["bench.latency_tail_ms"] = p50, p90, tail
	m.note("%s: p50 %.3f ms, p90 %.3f ms (best quarter of %d slices), p%g %.3f ms over %d samples",
		what, p50, p90, slices, p, tail, len(pts))
}

// generatorLag reports how late the load generator ran against its
// schedule, at the tail percentile.
func (m *measurement) generatorLag(lag []time.Duration) {
	ms := make([]float64, len(lag))
	for i, d := range lag {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	p := tailPercentile(len(ms))
	m.layer["bench.generator_lag_tail_ms"] = percentile(ms, p)
	m.note("generator lag: p%g %.3f ms over %d sends", p, m.layer["bench.generator_lag_tail_ms"], len(ms))
}

// spanSummary condenses a group of spans.
type spanSummary struct {
	n, items     int
	p50us, p99us float64
	busyMS       float64
}

func summarize(ss []span) spanSummary {
	s := spanSummary{n: len(ss)}
	ds := make([]time.Duration, len(ss))
	for i, sp := range ss {
		ds[i] = sp.dur()
		s.items += sp.Items
		s.busyMS += float64(sp.dur()) / float64(time.Millisecond)
	}
	us := durationsUS(ds)
	s.p50us, s.p99us = percentile(us, 50), percentile(us, 99)
	return s
}

// arrivalGapsMS returns the gaps between consecutive span starts (spans are
// ordered by start).
func arrivalGapsMS(ss []span) []float64 {
	var out []float64
	for i := 1; i < len(ss); i++ {
		out = append(out, float64(ss[i].Start-ss[i-1].Start)/float64(time.Millisecond))
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ingestLayers fills the RPC, registry, scorer and sink metrics a watcher
// or backfill run produces.
func (m *measurement) ingestLayers(spans map[string][]span) {
	list := summarize(spans["explorer.list"])
	m.layer["explorer.list_calls"] = float64(list.n)
	m.layer["explorer.list_p50_us"] = list.p50us
	m.layer["explorer.list_busy_ms"] = list.busyMS

	gc := summarize(spans["ethrpc.eth_getCode"])
	m.layer["ethrpc.getcode_batches"] = float64(gc.n)
	m.layer["ethrpc.getcode_items_per_batch"] = ratio(float64(gc.items), float64(gc.n))
	m.layer["ethrpc.getcode_p50_us"] = gc.p50us
	m.layer["ethrpc.getcode_busy_ms"] = gc.busyMS

	score := summarize(spans["detector.score"])
	m.layer["detector.score_calls"] = float64(score.n)
	m.layer["detector.score_p50_us"] = score.p50us
	m.layer["detector.score_p99_us"] = score.p99us
	m.layer["detector.score_busy_ms"] = score.busyMS

	m.layer["monitor.sink_emit_p50_us"] = summarize(spans["monitor.sink_emit"]).p50us
}

// endpoints sums the fetch plane's fault counters across endpoint
// snapshots. Every failed exchange is retried or given up, so the three
// failure counters together are the retries.
func (m *measurement) endpoints(eps []ph.EndpointStats) {
	for _, e := range eps {
		m.layer["ethrpc.retries"] += float64(e.RateLimited + e.Timeouts + e.Failures)
		m.layer["ethrpc.rate_limited"] += float64(e.RateLimited)
		m.layer["ethrpc.timeouts"] += float64(e.Timeouts)
		m.layer["ethrpc.hedges"] += float64(e.Hedges)
		m.layer["ethrpc.breaker_trips"] += float64(e.BreakerTrips)
	}
}

// serveLayers fills the replica and router metrics of a request workload.
// rtt are the client round trips, measured from the actual send.
func (m *measurement) serveLayers(spans map[string][]span, rtt []time.Duration) {
	handlers, batches, routes := spans["serve.handle"], spans["detector.score_batch"], spans["cluster.route"]
	child := map[uint64]time.Duration{}
	var perItem []time.Duration
	items := 0
	for _, b := range batches {
		child[b.Parent] += b.dur()
		items += b.Items
		if b.Items > 0 {
			perItem = append(perItem, b.dur()/time.Duration(b.Items))
		}
	}
	self := make([]time.Duration, len(handlers))
	var handlerBusy time.Duration
	for i, h := range handlers {
		self[i] = h.dur() - child[h.ID]
		handlerBusy += h.dur()
	}
	hs := summarize(handlers)
	m.layer["serve.requests"] = float64(hs.n)
	m.layer["serve.items_per_request"] = ratio(float64(items), float64(len(batches)))
	m.layer["serve.p50_us"] = hs.p50us
	m.layer["serve.self_us"] = percentile(durationsUS(self), 50)

	us := durationsUS(perItem)
	m.layer["detector.score_calls"] = float64(items)
	m.layer["detector.score_p50_us"] = percentile(us, 50)
	m.layer["detector.score_p99_us"] = percentile(us, 99)
	m.layer["detector.score_busy_ms"] = summarize(batches).busyMS

	outer := handlerBusy
	if len(routes) > 0 {
		rs := summarize(routes)
		m.layer["cluster.route_p50_us"] = rs.p50us
		var routeBusy time.Duration
		for _, r := range routes {
			routeBusy += r.dur()
		}
		m.layer["cluster.self_us"] = ratio(float64(routeBusy-handlerBusy)/float64(time.Microsecond), float64(len(routes)))
		outer = routeBusy
	}
	var total time.Duration
	for _, d := range rtt {
		total += d
	}
	m.layer["bench.unaccounted_share"] = clamp01(1 - ratio(float64(outer), float64(total)))
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	}
	return x
}

// cacheHitRatio sums CacheStats over detectors.
func cacheHitRatio(ds ...*ph.Detector) float64 {
	var hits, misses uint64
	for _, d := range ds {
		h, mi := d.CacheStats()
		hits += h
		misses += mi
	}
	return ratio(float64(hits), float64(hits+misses))
}

// setupSeconds runs one set-up repeats times and returns the median
// duration; the set-up closure keeps whatever the last run built.
func setupSeconds(repeats int, setup func() error) (float64, error) {
	ds := make([]float64, repeats)
	for i := range ds {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds), nil
}

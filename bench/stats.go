package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or 0 for an empty sample. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// tailLadder are the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten samples beyond it in a sample of n, so a reported tail is
// never a single outlier. Below 20 samples it falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// durationsUS converts durations to microseconds.
func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// median of xs (sorted in place); 0 for an empty sample.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func parseUint(s string) uint64 {
	v, _ := strconv.ParseUint(s, 10, 64)
	return v
}

// heapLiveMetric is the heap memory occupied by live objects as of the last
// completed GC cycle.
const heapLiveMetric = "/gc/heap/live:bytes"

// liveHeapAfterGC forces a GC and returns the live heap in bytes. Read after
// a forced GC, the live heap depends only on what the program holds, not on
// when the collector last ran, so it repeats from run to run where peaks of
// mapped memory do not. The second GC empties the sync.Pool victim caches,
// which survive the first.
func liveHeapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: heapLiveMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// retainedMB is the live heap now above base, in MB.
func retainedMB(base uint64) float64 {
	return (float64(liveHeapAfterGC()) - float64(base)) / (1 << 20)
}

// slices is how many consecutive parts of a run its samples are split
// into, one a second at the default window.
const slices = 10

// bestQuarter returns the value the best quarter of a run's slices reached:
// the lower quartile of the per-slice values when lower is better, the upper
// quartile when higher is. Load from outside the program, such as other
// tenants of a shared machine, only ever slows a slice down, and it comes and
// goes within a run; a change to the program moves every slice.
func bestQuarter(perSlice []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return percentile(perSlice, 25)
	}
	return percentile(perSlice, 75)
}

// point is one latency sample and where in the run its work was due, as a
// fraction in [0, 1).
type point struct {
	pos float64
	ms  float64
}

// slicedPercentile returns the best quarter of the run's slices' p-th
// percentiles.
func slicedPercentile(pts []point, p float64) float64 {
	groups := make([][]float64, slices)
	for _, pt := range pts {
		k := int(pt.pos * slices)
		if k < 0 {
			k = 0
		}
		if k >= slices {
			k = slices - 1
		}
		groups[k] = append(groups[k], pt.ms)
	}
	var per []float64
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, percentile(g, p))
		}
	}
	return bestQuarter(per, true)
}

// sleepUntil blocks until t (returns at once when t has passed). On Linux
// time.Sleep wakes up to a millisecond late, because the runtime's timers
// ride the poller's millisecond timeout; an open loop would charge that to
// the system as latency. So only the wait beyond the last two milliseconds
// is a time.Sleep, and the rest is a nanosleep, which wakes within tens of
// microseconds.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

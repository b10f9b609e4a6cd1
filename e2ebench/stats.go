package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail timing may report, highest first.
// A timing reports the highest one that leaves at least minBeyond samples
// above it, so a tail figure always rests on at least that many slow
// requests rather than on one outlier.
var tailLadder = []float64{99, 98, 95, 90, 75, 50}

// minBeyond is the least number of samples that must lie beyond a reported
// percentile.
const minBeyond = 10

// Summary condenses one timing's samples: the median, the tail percentile
// chosen by the ladder rule, and the sample count behind both.
type Summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // which percentile Tail is; 0 when N is too small
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond is how many of n samples lie strictly above the nearest-rank p-th
// percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailPercentile picks the highest ladder percentile with at least minBeyond
// samples beyond it among n samples, or 0 when no rung qualifies.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// summarize sorts a copy of the samples and applies the percentile rule.
// With too few samples for any rung the tail falls back to the maximum.
func summarize(samples []float64) Summary { return summarizeAt(samples, 0) }

// summarizeAt reports the tail at percentile p when at least minBeyond
// samples lie beyond it, and otherwise applies the percentile rule. A
// workload fixes p from its schedule, so that every run of it reports the
// same percentile.
func summarizeAt(samples []float64, p float64) Summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := Summary{N: len(s)}
	if len(s) == 0 {
		out.P50, out.Tail = math.NaN(), math.NaN()
		return out
	}
	out.P50 = percentile(s, 50)
	if p <= 0 || beyond(len(s), p) < minBeyond {
		p = tailPercentile(len(s))
	}
	if p > 0 {
		out.TailPct = p
		out.Tail = percentile(s, p)
	} else {
		out.Tail = s[len(s)-1]
	}
	return out
}

// median of a sample set (NaN when empty).
func median(xs []float64) float64 { return summarize(xs).P50 }

// mean of a sample set (0 when empty, so bypassed layers report 0).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Rung is one step of the capacity ladder: the rate offered, the tail read
// latency measured from each request's scheduled send time (+Inf when
// failures alone exceed the tail budget), and whether the generator's
// backlog grew.
type Rung struct {
	Rate    float64
	Tail    float64
	Failed  int
	Backlog int
	Growing bool
}

// passes reports whether the rung met the latency limit with no failures
// and no growing backlog.
func (r Rung) passes(limit float64) bool {
	return !r.Growing && r.Failed == 0 && r.Tail <= limit
}

// maxRate is the highest offered rate whose tail stays under limit with no
// growing backlog. Rungs must be ascending by rate. The ladder's capacity
// point is its first pair of consecutive failing rungs (or a failing top
// rung): a lone failing rung below it is a transient, not the limit. The
// rate is interpolated linearly on tail latency between the passing rung
// just below that point and the first rung of the pair, taking the origin
// (0 req/s at 0 ms) as the rung below the ladder. A failing rung whose tail
// is not above the limit (it failed on backlog or failures alone) gives the
// passing rate. If no such point exists, the top passing rate is returned
// with capped set.
func maxRate(rungs []Rung, limit float64) (rate float64, capped bool) {
	lo := Rung{}
	for i, r := range rungs {
		if r.passes(limit) {
			lo = r
			continue
		}
		if i+1 < len(rungs) && rungs[i+1].passes(limit) {
			continue // a lone failure
		}
		if math.IsInf(r.Tail, 1) || r.Tail <= limit || r.Tail <= lo.Tail {
			return lo.Rate, false
		}
		frac := (limit - lo.Tail) / (r.Tail - lo.Tail)
		return lo.Rate + frac*(r.Rate-lo.Rate), false
	}
	return lo.Rate, true
}

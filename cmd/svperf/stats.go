package main

import (
	"math"
	"sort"
	"time"
)

// tailMin is how many samples must lie above a percentile before it is
// reported: a p99 over 300 samples rests on three values and is noise.
const tailMin = 10

// tailLadder lists the percentiles a tail is reported at, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// dist summarises a sample of values: its size, its median and its tail,
// the highest percentile (capped at the caller's maximum) that still has
// tailMin samples above it.
type dist struct {
	N     int
	P50   float64
	TailP float64 // the percentile Tail is taken at; 0 when N is too small
	Tail  float64
	Mean  float64
}

// rankIndex is the nearest-rank index of percentile p in n sorted values.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// summarize sorts vals in place and returns their dist, with the tail
// taken at the highest ladder percentile not above maxP that has at least
// tailMin samples beyond it.
func summarize(vals []float64, maxP float64) dist {
	d := dist{N: len(vals)}
	if d.N == 0 {
		return d
	}
	sort.Float64s(vals)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	d.Mean = sum / float64(d.N)
	d.P50 = vals[rankIndex(50, d.N)]
	for _, p := range tailLadder {
		if p > maxP {
			continue
		}
		if i := rankIndex(p, d.N); d.N-1-i >= tailMin {
			d.TailP, d.Tail = p, vals[i]
			break
		}
	}
	return d
}

// ms converts durations to float milliseconds for summarize.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// median returns the median of vals without modifying them.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// The open-loop writer's schedule. Operation i is due at start+i*interval
// whether or not earlier operations have finished, so a stall delays every
// later operation and the delay is charged to them: latency runs from the
// due time, not from the moment the generator got round to sending.

// dueAt returns when operation i of a schedule is due.
func dueAt(start time.Time, i int64, interval time.Duration) time.Time {
	return start.Add(time.Duration(i) * interval)
}

// interval is the gap between operations of batch records each that
// together offer rate records per second.
func interval(batch int, rate float64) time.Duration {
	return time.Duration(float64(batch) / rate * float64(time.Second))
}

// lateness is how far behind its schedule the generator sent an operation;
// an operation sent early (the generator sleeps until due) is not late.
func lateness(due, sent time.Time) time.Duration {
	if sent.Before(due) {
		return 0
	}
	return sent.Sub(due)
}

// ackLatency is an operation's latency as its issuer sees it: from when it
// was due to when it was acknowledged.
func ackLatency(due, acked time.Time) time.Duration { return acked.Sub(due) }

package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// where at least this many samples lie beyond it.
const minBeyond = 10

// quantile is one reported percentile: the value, the percentile the
// rule actually allowed, and the sample count behind it.
type quantile struct {
	Value float64
	P     float64
	N     int
}

// percentile returns the nearest-rank value at percentile p of xs. A
// percentile above the median is capped at the highest rank that
// leaves minBeyond samples beyond it; when not even a rank above the
// median qualifies, the median is returned, so a tail is never
// reported from fewer samples than the rule allows. P is the rank
// actually used, as a percentile. An empty sample gives the zero
// quantile.
func percentile(xs []float64, p float64) quantile {
	n := len(xs)
	if n == 0 {
		return quantile{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := func(q float64) int { return max(1, int(math.Ceil(q/100*float64(n)-1e-9))) }
	k, mid := rank(p), rank(50)
	if p > 50 && k > n-minBeyond {
		k = max(n-minBeyond, mid)
	}
	return quantile{Value: s[k-1], P: 100 * float64(k) / float64(n), N: n}
}

// median is the nearest-rank median of xs (0 for no samples).
func median(xs []float64) float64 { return percentile(xs, 50).Value }

// mean is the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// interval is a span's [Start, End) on the host clock.
type interval struct{ Start, End time.Time }

// selfTime is a span's duration minus the part of it covered by its
// children. Children are clipped to the span and may overlap each
// other; covered time is counted once. It sorts children in place.
func selfTime(span interval, children []interval) time.Duration {
	slices.SortFunc(children, func(a, b interval) int { return a.Start.Compare(b.Start) })
	self := span.End.Sub(span.Start)
	cursor := span.Start
	for _, c := range children {
		start, end := c.Start, c.End
		if start.Before(cursor) {
			start = cursor
		}
		if end.After(span.End) {
			end = span.End
		}
		if end.After(start) {
			self -= end.Sub(start)
			cursor = end
		}
	}
	return self
}

// unionLength is the total time covered by at least one interval.
func unionLength(spans []interval) time.Duration {
	s := append([]interval(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	var total time.Duration
	var cur interval
	for i, iv := range s {
		switch {
		case i == 0:
			cur = iv
		case iv.Start.After(cur.End):
			total += cur.End.Sub(cur.Start)
			cur = iv
		case iv.End.After(cur.End):
			cur.End = iv.End
		}
	}
	if len(s) > 0 {
		total += cur.End.Sub(cur.Start)
	}
	return total
}

// queueWaits derives each job's admission wait: the client's job time
// (submit due to done observed) minus the server's run time for it.
// Poll resolution can make the difference slightly negative for a job
// that started at once; that reads as no wait.
func queueWaits(clientJobS, serverRunS []float64) []float64 {
	out := make([]float64, len(clientJobS))
	for i := range clientJobS {
		out[i] = max(0, clientJobS[i]-serverRunS[i])
	}
	return out
}

// tailIdle is the worker time a FIFO pool of the given size leaves
// idle in a job whose chips all queue at time zero, from the chips'
// completion offsets alone. Every worker is busy until the queue
// empties; from then on each worker idles from its last completion to
// the job's end. It returns the idle worker-seconds and the job span.
func tailIdle(completions []float64, workers int) (idle, span float64) {
	if len(completions) == 0 || workers <= 0 {
		return 0, 0
	}
	c := append([]float64(nil), completions...)
	sort.Float64s(c)
	span = c[len(c)-1]
	if len(c) < workers {
		idle += float64(workers-len(c)) * span
	}
	for _, t := range c[max(0, len(c)-workers):] {
		idle += span - t
	}
	return idle, span
}

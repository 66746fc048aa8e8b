package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n     int
		p     float64
		value float64
		effP  float64
	}{
		{1000, 99, 990, 99},   // exactly 10 samples beyond p99
		{500, 99, 490, 98},    // p99 would leave 5 beyond: capped at p98
		{100, 90, 90, 90},     // 10 beyond p90
		{50, 90, 40, 80},      // capped at the 40th of 50
		{15, 90, 8, 53.33333}, // too few for any tail: the median, flagged
		{15, 50, 8, 53.33333}, // nearest-rank median
		{10, 50, 5, 50},
		{1, 99, 1, 100},
	}
	for _, c := range cases {
		q := percentile(seq(c.n), c.p)
		if q.Value != c.value || math.Abs(q.P-c.effP) > 1e-4 || q.N != c.n {
			t.Errorf("percentile(n=%d, p%g) = %+v, want value %g at p%g", c.n, c.p, q, c.value, c.effP)
		}
	}
	if q := percentile(nil, 50); q != (quantile{}) {
		t.Errorf("empty sample: %+v", q)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTime(t *testing.T) {
	span := interval{at(0), at(100)}
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{{at(10), at(30)}, {at(50), at(60)}}, 70 * time.Millisecond},
		{"overlapping counted once", []interval{{at(10), at(40)}, {at(30), at(50)}}, 60 * time.Millisecond},
		{"clipped to the span", []interval{{at(-20), at(10)}, {at(90), at(130)}}, 80 * time.Millisecond},
		{"unsorted", []interval{{at(50), at(60)}, {at(10), at(30)}}, 70 * time.Millisecond},
		{"nested", []interval{{at(10), at(60)}, {at(20), at(30)}}, 50 * time.Millisecond},
		{"outside", []interval{{at(200), at(300)}}, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: self %v, want %v", c.name, got, c.want)
		}
	}
}

func TestUnionLength(t *testing.T) {
	got := unionLength([]interval{{at(0), at(10)}, {at(5), at(20)}, {at(30), at(40)}, {at(35), at(36)}})
	if got != 30*time.Millisecond {
		t.Errorf("union %v, want 30ms", got)
	}
	if unionLength(nil) != 0 {
		t.Error("empty union is not zero")
	}
}

func TestQueueWaits(t *testing.T) {
	// Client job time = queue wait + run time + poll slack; a job seen
	// done within the poll period of starting reads as no wait.
	got := queueWaits([]float64{2.0, 0.80, 1.5}, []float64{0.75, 0.82, 1.5})
	want := []float64{1.25, 0, 0}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("wait %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestTailIdle(t *testing.T) {
	cases := []struct {
		name        string
		completions []float64
		workers     int
		idle, span  float64
	}{
		// Two workers, chips done at 1, 1, 2 and 3 s: once the queue
		// empties, the worker whose last chip ends at 2 s idles to 3 s.
		{"straggler", []float64{1, 1, 2, 3}, 2, 1, 3},
		{"balanced", []float64{1, 1, 2, 2}, 2, 0, 2},
		{"fewer chips than workers", []float64{2}, 2, 2, 2},
		{"unsorted input", []float64{3, 1, 2, 1}, 2, 1, 3},
	}
	for _, c := range cases {
		idle, span := tailIdle(c.completions, c.workers)
		if idle != c.idle || span != c.span {
			t.Errorf("%s: idle %g span %g, want %g %g", c.name, idle, span, c.idle, c.span)
		}
	}
}

func TestNextPoll(t *testing.T) {
	due := at(0)
	if got := nextPoll(due, at(120)); !got.Equal(at(150)) {
		t.Errorf("next poll after 120ms = %v, want 150ms", got.Sub(due))
	}
	if got := nextPoll(due, at(150)); !got.Equal(at(200)) {
		t.Errorf("next poll after 150ms = %v, want 200ms", got.Sub(due))
	}
}

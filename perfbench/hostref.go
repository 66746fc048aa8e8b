package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// The host-speed reference. On a shared host the same program runs up
// to ~30% faster or slower from one quarter of an hour to the next, and
// by ±20% within a minute, so a run's timings compare only with runs
// made on a host running at the same speed. Every untraced run
// therefore also times a fixed computation of its own that shares no
// code with the program: integer hashing and a rational approximation
// of the inverse normal CDF over a small table, the integer-multiply
// and float mix of the simulator's hot loops. It runs on workers()
// goroutines at once, refSamples times before the first set-up and
// refSamples times after the timed window, while no program work runs.
// The run prints the host's speed against nominal and whether it held
// steady; a run on an unsteady host compares poorly with any other.
//
// The timings themselves are reported as measured, not scaled by the
// reference. Over trial runs on the 2-vCPU host, scaling by the
// reference did not narrow their spread: the program's speed follows
// the reference's only partly (when the reference ran 40-70% faster
// than nominal, fleet-calib ran ~20% faster), and references timed
// during the window depend on what the program runs beside them.

// refNominalMs is the reference's median time, in ms, on the 2-vCPU
// host the benchmark was built on (Intel Xeon, 2 goroutines).
const refNominalMs = 50.0

// refSamples is how many times the reference runs at each point.
const refSamples = 5

// refIters is one goroutine's work per reference sample.
const refIters = 3_000_000

// steadyDrift and steadySpeed bound a steady host: the reference's time
// after the window within steadyDrift of its time before the first
// set-up, and its speed within steadySpeed of nominal.
const (
	steadyDrift = 0.10
	steadySpeed = 0.15
)

// hostRef holds a run's reference samples, in ms: before the first
// set-up and after the timed window.
type hostRef struct{ before, after []float64 }

// sampleRef times the reference refSamples times.
func sampleRef() []float64 {
	var took []float64
	for range refSamples {
		t := time.Now()
		refSink = refParallel(workers())
		took = append(took, ms(time.Since(t)))
	}
	return took
}

// refSink keeps the reference's result, so its work cannot be
// optimised away.
var refSink float64

// record prints the host's speed, its drift over the run and whether
// it held steady.
func (h hostRef) record(r *report) {
	if len(h.before) == 0 || len(h.after) == 0 {
		r.check(fmt.Errorf("host reference was not sampled"))
		return
	}
	speed := refNominalMs / median(append(slices.Clone(h.before), h.after...))
	drift := median(h.after)/median(h.before) - 1
	steady := 0.0
	if math.Abs(drift) <= steadyDrift && math.Abs(speed-1) <= steadySpeed {
		steady = 1
	}
	n := len(h.before) + len(h.after)
	r.set("host.speed", "x", speed, n, fmt.Sprintf("reference time %g ms nominal over the run's median", refNominalMs))
	r.set("host.ref_drift", "frac", drift, n, "reference slowdown, after the window over before the first set-up")
	r.set("host.steady", "bool", steady, n, fmt.Sprintf("1: drift within %g and speed within %g of nominal", steadyDrift, steadySpeed))
}

// refParallel runs the reference kernel on w goroutines at once and
// returns their checksum.
func refParallel(w int) float64 {
	sums := make([]float64, w)
	var wg sync.WaitGroup
	for g := range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[g] = refKernel(uint64(g))
		}()
	}
	wg.Wait()
	total := 0.0
	for _, s := range sums {
		total += s
	}
	return total
}

// refKernel is the reference computation: hash a counter, turn it into
// a uniform deviate, map that through an inverse normal approximation
// and accumulate into a 16 KB table, refIters times. It returns a checksum so the work
// cannot be optimised away.
func refKernel(seed uint64) float64 {
	var tab [2048]float64
	sum := 0.0
	for i := range uint64(refIters) {
		h := refMix(seed<<32 + i)
		p := (float64(h>>11) + 0.5) / (1 << 53)
		tab[h&2047] += refNormInv(p)
		sum += tab[(h>>20)&2047]
	}
	return sum
}

// refMix is the splitmix64 finaliser.
func refMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// refNormInv is Acklam's rational approximation of the inverse normal
// CDF, lower tail and central region (the upper tail takes the central
// branch, which is all the reference needs: a fixed amount of work).
func refNormInv(p float64) float64 {
	if p < 0.02425 {
		q := math.Sqrt(-2 * math.Log(p))
		return (((((-7.784894002430293e-03*q-3.223964580411365e-01)*q-2.400758277161838e+00)*q-2.549732539343734e+00)*q+4.374664141464968e+00)*q + 2.938163982698783e+00) /
			((((7.784695709041462e-03*q+3.224671290700398e-01)*q+2.445134137142996e+00)*q+3.754408661907416e+00)*q + 1)
	}
	q := p - 0.5
	r := q * q
	return (((((-3.969683028665376e+01*r+2.209460984245205e+02)*r-2.759285104469687e+02)*r+1.383577518672690e+02)*r-3.066479806614716e+01)*r + 2.506628277459239e+00) * q /
		(((((-5.447609879822406e+01*r+1.615858368580409e+02)*r-1.556989798598866e+02)*r+6.680131188771972e+01)*r-1.328068155288572e+01)*r + 1)
}

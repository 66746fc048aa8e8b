package main

import (
	"math"
	"testing"
)

// TestHostRefSteady checks the host-speed arithmetic and the steady
// judgement.
func TestHostRefSteady(t *testing.T) {
	nom := refNominalMs
	for _, c := range []struct {
		before, after []float64
		speed, drift  float64
		steady        float64
	}{
		{[]float64{nom, 3 * nom, nom}, []float64{nom, nom, 0.1}, 1, 0, 1},
		{[]float64{nom}, []float64{1.2 * nom, 1.2 * nom}, 1 / 1.2, 0.2, 0}, // drifted
		{[]float64{2 * nom}, []float64{2 * nom}, 0.5, 0, 0},                // slow host
	} {
		r := newReport()
		hostRef{c.before, c.after}.record(r)
		for name, want := range map[string]float64{"host.speed": c.speed, "host.ref_drift": c.drift, "host.steady": c.steady} {
			if got := r.vals[name].Value; math.Abs(got-want) > 1e-12 {
				t.Errorf("before %v after %v: %s = %g, want %g", c.before, c.after, name, got, want)
			}
		}
	}
	r := newReport()
	hostRef{before: []float64{nom}}.record(r)
	if len(r.errs) == 0 {
		t.Error("a run without reference samples after the window passed")
	}
}

// TestRefKernelIsFixedWork checks the reference computes the same
// checksum every time: it is a fixed amount of work.
func TestRefKernelIsFixedWork(t *testing.T) {
	a, b := refKernel(1), refKernel(1)
	if a != b || math.IsNaN(a) || math.IsInf(a, 0) {
		t.Errorf("checksums %v and %v", a, b)
	}
	if refParallel(2) != refKernel(0)+refKernel(1) {
		t.Error("refParallel does not run one kernel per goroutine")
	}
}

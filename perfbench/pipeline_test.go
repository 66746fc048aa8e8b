package main

import (
	"context"
	"testing"

	"eccspec/internal/fleet"
)

// TestTracedRunMatchesEngine checks that the traced pipeline reproduces
// the engine's outputs for a healthy chip and for one whose core
// crashes under speculation (chip 2001005 dies at tick 124), and that
// both report the crash as one (sim.crashed_chips counts it).
func TestTracedRunMatchesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates two chips")
	}
	job := fleetJob(200, []uint64{canarySeed, 2001005})
	job.CheckpointEvery = 100
	res, err := fleet.New(fleet.Config{Workers: 2}).Run(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := &layers{}
	traced := traceJob(context.Background(), job, 2, acc)
	for i, r := range res {
		c := traced[i]
		if (r.Err == nil) != (c.err == nil) {
			t.Fatalf("chip %d: engine error %v, traced error %v", r.Seed, r.Err, c.err)
		}
		if got, want := digest([]chipOut{c.out}), digest([]chipOut{outOf(r)}); got != want {
			t.Errorf("chip %d: traced digest %s, engine %s", r.Seed, got, want)
		}
	}
	if res[0].Err != nil || res[0].Ticks != 200 {
		t.Errorf("canary chip: %v after %d ticks", res[0].Err, res[0].Ticks)
	}
	if res[1].Err == nil || !crashed(res[1].Err.Error()) || !crashed(traced[1].err.Error()) {
		t.Errorf("chip 2001005 should crash: engine %v, traced %v", res[1].Err, traced[1].err)
	}
	if len(acc.calibMs) != 1 || acc.steadyTicks == 0 || len(acc.captureMs) != 1 || len(acc.restoreMs) != 1 {
		t.Errorf("healthy chip's layers not recorded: %d calibrations, %d steady ticks, %d captures, %d restores",
			len(acc.calibMs), acc.steadyTicks, len(acc.captureMs), len(acc.restoreMs))
	}
}

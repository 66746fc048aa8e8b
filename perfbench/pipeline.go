package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"eccspec"
	"eccspec/internal/engine"
	"eccspec/internal/fleet"
	"eccspec/internal/snapshot"
)

// The traced run drives each chip through the same public calls that
// fleet.Engine makes for a fresh chip (eccspec.NewSimulator, per-domain
// control.System.CalibrateDomain, engine.Run over chip.Chip.Step and
// control.System.Tick, snapshot.Capture/Marshal at checkpoints) and
// times every call from here, outside the program. Its outputs must be
// identical to the untraced engine run of the same chips.

// paperReductionPct is the mean Vdd reduction the paper reports
// (Fig. 10), the reference for sim.vdd_reduction_pct.
const paperReductionPct = 18.0

// warmTicks is how many post-calibration ticks count as kernel warm-up.
const warmTicks = 100

// layers accumulates per-layer timings across traced chips.
type layers struct {
	mu                           sync.Mutex
	newMs, calibMs, onsetMs      []float64
	sweepSteps                   []float64
	firstTickMs, warmupMs        []float64
	steadyStep, steadyCtl        time.Duration
	steadySelf                   time.Duration
	steadyTicks                  int
	captureMs, restoreMs, blobKB []float64
	chipWall, calibWall, stepCtl time.Duration
	reductions                   []float64
	emergencies                  int
}

// entries renders the accumulated timings as per-layer metrics.
func (l *layers) entries(r *report) {
	r.setQ("eccspec.new_ms", "ms", percentile(l.newMs, 50))
	r.setQ("control.calibrate_ms", "ms", percentile(l.calibMs, 50))
	r.setQ("control.find_onset_ms", "ms", percentile(l.onsetMs, 50))
	r.set("control.sweep_steps", "count", mean(l.sweepSteps), len(l.sweepSteps), "mean per domain")
	r.setQ("kernel.first_tick_ms", "ms", percentile(l.firstTickMs, 50))
	r.setQ("kernel.warmup_ms", "ms", percentile(l.warmupMs, 50))
	perTick := func(d time.Duration) float64 {
		if l.steadyTicks == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(l.steadyTicks)
	}
	r.set("chip.step_us", "us", perTick(l.steadyStep), l.steadyTicks, "mean, steady ticks")
	r.set("control.tick_us", "us", perTick(l.steadyCtl), l.steadyTicks, "mean, steady ticks")
	r.set("engine.tick_self_us", "us", perTick(l.steadySelf), l.steadyTicks, "mean span self time")
	share := func(d time.Duration) float64 {
		if l.chipWall == 0 {
			return 0
		}
		return 100 * d.Seconds() / l.chipWall.Seconds()
	}
	r.set("share.calibrate_pct", "%", share(l.calibWall), len(l.calibMs), "of traced chip time")
	r.set("share.step_tick_pct", "%", share(l.stepCtl), len(l.calibMs), "of traced chip time")
	r.set("snapshot.capture_ms", "ms", mean(l.captureMs), len(l.captureMs), "Capture+Marshal mean (checkpoints, else the final state)")
	r.set("snapshot.restore_ms", "ms", mean(l.restoreMs), len(l.restoreMs), "RestoreBlob mean")
	r.set("snapshot.blob_kb", "KB", mean(l.blobKB), len(l.blobKB), "mean")
	red := 100 * mean(l.reductions)
	r.set("sim.vdd_reduction_pct", "%", red, len(l.reductions),
		fmt.Sprintf("simulated; paper Fig. 10: %g%%, model error %+.1f points", paperReductionPct, red-paperReductionPct))
	r.set("sim.emergencies", "count", float64(l.emergencies), len(l.reductions), "total")
}

// tickTimer is the engine.Sim the traced run steps: it performs
// exactly eccspec.Simulator.Step's calls, timing each, and as the last
// observer of each tick closes the tick's span.
type tickTimer struct {
	sim      *eccspec.Simulator
	ticks    int // ticks the run will execute
	lastEnd  time.Time
	children [3]interval
	nc       int

	first, warm         time.Duration
	warmN               int
	steadyN             int
	steadySpan          time.Duration
	steadyStep, steadyC time.Duration
	steadySelf          time.Duration
	stepCtl             time.Duration
}

func (t *tickTimer) Step() bool {
	a := time.Now()
	t.sim.Chip().Step()
	b := time.Now()
	t.sim.Control().Tick()
	c := time.Now()
	t.children[0], t.children[1], t.nc = interval{a, b}, interval{b, c}, 2
	return t.sim.CoresAlive()
}

// addChild records a further child span (a checkpoint) in this tick.
func (t *tickTimer) addChild(iv interval) {
	if t.nc < len(t.children) {
		t.children[t.nc] = iv
		t.nc++
	}
}

// steadyFrom is the first tick index counted as steady: past warm-up
// when the run is long enough to have a steady phase, else past the
// first tick.
func (t *tickTimer) steadyFrom() int {
	if t.ticks > 2*warmTicks {
		return warmTicks + 1
	}
	return 2
}

func (t *tickTimer) OnStart(engine.View) error {
	t.lastEnd = time.Now()
	return nil
}

func (t *tickTimer) OnTick(v engine.View) error {
	now := time.Now()
	span := interval{t.lastEnd, now}
	dur := now.Sub(t.lastEnd)
	step := t.children[0].End.Sub(t.children[0].Start)
	ctl := t.children[1].End.Sub(t.children[1].Start)
	self := selfTime(span, t.children[:t.nc])
	t.stepCtl += step + ctl
	if v.Tick == 1 {
		t.first = dur
	}
	if v.Tick <= warmTicks {
		t.warm += dur
		t.warmN++
	}
	if v.Tick >= t.steadyFrom() {
		t.steadyN++
		t.steadySpan += dur
		t.steadyStep += step
		t.steadyC += ctl
		t.steadySelf += self
	}
	t.lastEnd, t.nc = now, 0
	return nil
}

func (t *tickTimer) OnStop(engine.View, error) {}

// warmup is the first warm-up ticks' time beyond what the same number
// of steady ticks costs.
func (t *tickTimer) warmup() time.Duration {
	if t.steadyN == 0 {
		return 0
	}
	return t.warm - time.Duration(int64(t.warmN)*int64(t.steadySpan)/int64(t.steadyN))
}

// tracedChip is one traced chip's outputs and last checkpoint blob.
type tracedChip struct {
	out  chipOut
	blob []byte
	err  error
}

// traceChip runs one fresh chip of job the way fleet.Engine does,
// timing each layer into acc.
func traceChip(ctx context.Context, job fleet.Job, seed uint64, acc *layers) tracedChip {
	c0 := time.Now()
	sim, err := eccspec.NewSimulator(eccspec.Options{Seed: seed, Workload: job.Workload,
		Policy: job.Policy, Fidelity: job.Fidelity})
	if err != nil {
		return tracedChip{err: err}
	}
	c1 := time.Now()
	ctl := sim.Control()
	var onset, steps []float64
	for _, d := range sim.Chip().Domains {
		t := time.Now()
		a, err := ctl.CalibrateDomain(d)
		if err != nil {
			return tracedChip{err: fmt.Errorf("calibrate: %w", err)}
		}
		onset = append(onset, ms(time.Since(t)))
		steps = append(steps, math.Round((sim.NominalVoltage()-a.OnsetV)/ctl.Cfg.CalibStepV)+1)
	}
	c2 := time.Now()

	tt := &tickTimer{sim: sim, ticks: int(job.Seconds / sim.TickSeconds())}
	var last []byte
	var captures, sizes []float64
	var obs []engine.Observer
	if job.CheckpointEvery > 0 {
		obs = append(obs, engine.EveryN{N: job.CheckpointEvery, Fn: func(v engine.View) error {
			if v.Tick >= v.Until {
				return nil
			}
			a := time.Now()
			st, err := snapshot.Capture(sim)
			if err != nil {
				return fmt.Errorf("capture: %w", err)
			}
			blob, err := snapshot.Marshal(st)
			if err != nil {
				return fmt.Errorf("marshal: %w", err)
			}
			b := time.Now()
			tt.addChild(interval{a, b})
			captures = append(captures, ms(b.Sub(a)))
			sizes = append(sizes, float64(len(blob))/1024)
			last = blob
			return nil
		}})
	}
	obs = append(obs, tt)
	rep, err := engine.Run(ctx, tt, engine.Config{Until: tt.ticks, Observers: obs})
	c3 := time.Now()
	if err != nil {
		return tracedChip{err: err}
	}
	if !sim.CoresAlive() {
		return tracedChip{out: chipOut{Seed: seed, Ticks: rep.Tick}, blob: last,
			err: fmt.Errorf("core died after %d ticks", rep.Tick)}
	}
	out := chipOut{Seed: seed, AvgReduction: sim.AverageReduction(), UncoreVdd: sim.UncoreVoltage(),
		AvgPowerW: sim.TotalPower(), Ticks: rep.Tick}
	for d := 0; d < sim.NumDomains(); d++ {
		out.DomainVdd = append(out.DomainVdd, sim.DomainVoltage(d))
	}

	// Restore the last checkpoint. A run too short to checkpoint
	// captures its final state once instead, so every workload measures
	// the snapshot layer.
	restoreFrom, wantTicks := last, 0
	if last != nil {
		wantTicks = (tt.ticks - 1) / job.CheckpointEvery * job.CheckpointEvery
	} else {
		a := time.Now()
		st, err := snapshot.Capture(sim)
		if err != nil {
			return tracedChip{err: fmt.Errorf("capture: %w", err)}
		}
		if restoreFrom, err = snapshot.Marshal(st); err != nil {
			return tracedChip{err: fmt.Errorf("marshal: %w", err)}
		}
		captures = append(captures, ms(time.Since(a)))
		sizes = append(sizes, float64(len(restoreFrom))/1024)
		wantTicks = rep.Tick
	}
	t := time.Now()
	_, st, err := snapshot.RestoreBlob(restoreFrom)
	restore := ms(time.Since(t))
	if err != nil {
		return tracedChip{err: fmt.Errorf("restore: %w", err)}
	}
	if st.Ticks != wantTicks {
		return tracedChip{err: fmt.Errorf("restored a snapshot at tick %d, want %d", st.Ticks, wantTicks)}
	}

	acc.mu.Lock()
	defer acc.mu.Unlock()
	acc.newMs = append(acc.newMs, ms(c1.Sub(c0)))
	acc.calibMs = append(acc.calibMs, ms(c2.Sub(c1)))
	acc.onsetMs = append(acc.onsetMs, onset...)
	acc.sweepSteps = append(acc.sweepSteps, steps...)
	acc.firstTickMs = append(acc.firstTickMs, ms(tt.first))
	acc.warmupMs = append(acc.warmupMs, ms(tt.warmup()))
	acc.steadyStep += tt.steadyStep
	acc.steadyCtl += tt.steadyC
	acc.steadySelf += tt.steadySelf
	acc.steadyTicks += tt.steadyN
	acc.captureMs = append(acc.captureMs, captures...)
	acc.blobKB = append(acc.blobKB, sizes...)
	acc.restoreMs = append(acc.restoreMs, restore)
	acc.chipWall += c3.Sub(c0)
	acc.calibWall += c2.Sub(c1)
	acc.stepCtl += tt.stepCtl
	acc.reductions = append(acc.reductions, out.AvgReduction)
	acc.emergencies += ctl.Emergencies()
	return tracedChip{out: out, blob: last}
}

// traceJob runs every seed of job through traceChip on a FIFO pool of
// the given size, like fleet.Engine, returning results in seed order.
func traceJob(ctx context.Context, job fleet.Job, workers int, acc *layers) []tracedChip {
	res := make([]tracedChip, len(job.Seeds))
	idx := make(chan int)
	var wg sync.WaitGroup
	for range min(workers, len(job.Seeds)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res[i] = traceChip(ctx, job, job.Seeds[i], acc)
			}
		}()
	}
	for i := range job.Seeds {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return res
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

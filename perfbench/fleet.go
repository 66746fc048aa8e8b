package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"eccspec/internal/fleet"
)

const (
	benchWorkload   = "jbb-8wh"
	tickSeconds     = 1e-3 // the low-voltage point's control tick
	canaryTicks     = 50
	checkpointEvery = 1000 // eccspecd's default -checkpoint-interval
	// setupSamples is how many fresh processes each untraced run sets
	// up; setup_s is their median.
	setupSamples = 5
)

// fleetShape sizes a fleet workload. chipS is one chip's wall time on
// a 2-vCPU host at the commit that added the benchmark; it turns the
// run's seconds into a chip count, so a faster program finishes the
// same job sooner rather than getting more work.
type fleetShape struct {
	ticks int
	chipS float64
}

var fleetShapes = map[string]fleetShape{
	"fleet-calib": {ticks: 50, chipS: 0.80},
	"fleet-soak":  {ticks: 25000, chipS: 5.0},
}

// chipCount is the job size for a window of seconds on w workers.
func (s fleetShape) chipCount(seconds float64, w int) int {
	return max(w, int(math.Round(seconds*float64(w)/s.chipS)))
}

// calibPool is fleet-calib's fixed pool of chip specimens, seeds
// calibPoolBase onwards; every chip's 50-tick outputs are recorded in
// poolDigests, so every fleet-calib run is checked chip by chip.
const (
	calibPoolBase = 8_000_000
	calibPoolSize = 128
)

// calibSeeds draws a fleet-calib job's n chips from the pool, without
// repeats, in an order set by the workload seed.
func calibSeeds(workloadSeed uint64, n int) []uint64 {
	n = min(max(n, 1), calibPoolSize)
	var seeds []uint64
	for _, i := range rand.New(rand.NewSource(int64(workloadSeed))).Perm(calibPoolSize)[:n] {
		seeds = append(seeds, calibPoolBase+uint64(i))
	}
	return seeds
}

// soakStrata partitions forty chip specimens (seeds 7000000-7000039)
// into ten strata of four by the time their 25k-tick loop took on a
// 2-vCPU host at the commit that added the benchmark, fastest first
// (0.9-2.0 s up to 8.9-10.2 s: steady tick cost varies ~10x between
// specimens). A fleet-soak run draws one chip per stratum, picked by
// the workload seed, so every run's job has the same cost profile and
// a handful of chips still measures the population; a plain random
// draw of ten spreads the job's cost by ~20% from seed to seed.
var soakStrata = [10][4]uint64{
	{7000023, 7000000, 7000039, 7000027},
	{7000001, 7000020, 7000012, 7000029},
	{7000007, 7000032, 7000019, 7000022},
	{7000008, 7000034, 7000030, 7000025},
	{7000009, 7000003, 7000036, 7000038},
	{7000018, 7000021, 7000015, 7000033},
	{7000013, 7000028, 7000024, 7000005},
	{7000011, 7000031, 7000026, 7000037},
	{7000017, 7000006, 7000016, 7000014},
	{7000002, 7000010, 7000035, 7000004},
}

// soakSeeds draws n fleet-soak chips, one from each of n strata spread
// evenly over the ten, listed slowest first so the pool's straggler
// tail stays short.
func soakSeeds(workloadSeed uint64, n int) []uint64 {
	n = min(max(n, 1), len(soakStrata))
	rnd := rand.New(rand.NewSource(int64(workloadSeed)))
	var seeds []uint64
	for i := n - 1; i >= 0; i-- {
		stratum := soakStrata[i*len(soakStrata)/n]
		seeds = append(seeds, stratum[rnd.Intn(len(stratum))])
	}
	return seeds
}

// fleetJob is a benchmark job: jbb-8wh chips at the default point,
// full fidelity, paper policy, checkpointing like the daemon.
func fleetJob(ticks int, seeds []uint64) fleet.Job {
	return fleet.Job{Seeds: seeds, Workload: benchWorkload, Seconds: float64(ticks) * tickSeconds,
		CheckpointEvery: checkpointEvery}
}

// childOut is what a fleet process under test reports to the parent.
type childOut struct {
	SetupS      float64          `json:"setup_s"`
	Canary      chipOut          `json:"canary"`
	Chips       []chipOut        `json:"chips,omitempty"`
	Errors      []string         `json:"errors,omitempty"`
	SpanS       float64          `json:"span_s"`
	Completions []float64        `json:"completions,omitempty"`
	CPUS        float64          `json:"cpu_s"`
	RSSMB       float64          `json:"rss_mb"`
	Traced      []chipOut        `json:"traced,omitempty"`
	TracedSpanS float64          `json:"traced_span_s"`
	Layers      map[string]entry `json:"layers,omitempty"`
}

// fleetChild is the process under test for the fleet workloads: it
// constructs the engine, warms up on the canary chip (set-up), and in
// "run" mode then runs the timed job — traced or not.
func fleetChild(ctx context.Context, o opts, w io.Writer) error {
	sh, ok := fleetShapes[o.workload]
	if !ok {
		return fmt.Errorf("unknown fleet workload %q", o.workload)
	}
	var out childOut
	t0 := time.Now()
	eng := fleet.New(fleet.Config{Workers: workers()})
	warm, err := eng.Run(ctx, fleetJob(canaryTicks, []uint64{canarySeed}), nil)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	out.SetupS = time.Since(t0).Seconds()
	if warm[0].Err != nil {
		out.Errors = append(out.Errors, fmt.Sprintf("canary: %v", warm[0].Err))
	}
	out.Canary = outOf(warm[0])

	if o.child == "run" {
		n := sh.chipCount(o.seconds, workers())
		if o.trace {
			n = max(workers(), n/2) // run twice: untraced, then traced
		}
		seeds := calibSeeds(o.seed, n)
		if o.workload == "fleet-soak" {
			seeds = soakSeeds(o.seed, n)
		}
		if err := runTimedJob(ctx, o, fleetJob(sh.ticks, seeds), eng, &out); err != nil {
			return err
		}
	}
	if out.RSSMB, err = peakRSSMB(0); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(out)
}

func runTimedJob(ctx context.Context, o opts, job fleet.Job, eng *fleet.Engine, out *childOut) error {
	var mu sync.Mutex
	blobs := map[uint64][]byte{}
	var start time.Time
	job.OnCheckpoint = func(seed uint64, _ int, blob []byte) {
		mu.Lock()
		blobs[seed] = blob
		mu.Unlock()
	}
	job.OnResult = func(fleet.ChipResult) {
		mu.Lock()
		out.Completions = append(out.Completions, time.Since(start).Seconds())
		mu.Unlock()
	}
	cpu0 := selfCPU()
	start = time.Now()
	res, err := eng.Run(ctx, job, nil)
	out.SpanS = time.Since(start).Seconds()
	out.CPUS = (selfCPU() - cpu0).Seconds()
	if err != nil {
		return fmt.Errorf("fleet run: %w", err)
	}
	for _, r := range res {
		out.Chips = append(out.Chips, outOf(r))
	}
	if !o.trace {
		return nil
	}

	acc := &layers{}
	t := time.Now()
	traced := traceJob(ctx, job, workers(), acc)
	out.TracedSpanS = time.Since(t).Seconds()
	for i, c := range traced {
		seed := job.Seeds[i]
		if c.err != nil {
			out.Errors = append(out.Errors, fmt.Sprintf("traced chip %d: %v", seed, c.err))
		}
		if !bytes.Equal(c.blob, blobs[seed]) {
			out.Errors = append(out.Errors, fmt.Sprintf("chip %d: traced checkpoint differs from the engine's", seed))
		}
		out.Traced = append(out.Traced, c.out)
	}
	r := newReport()
	acc.entries(r)
	out.Layers = r.vals
	return nil
}

// crashed reports whether a chip error is a simulated core crash: a
// rail went below a core's crash margin under speculation, the failure
// the controller exists to prevent. It fails the run like any other
// chip error; sim.crashed_chips counts it apart as a diagnostic.
func crashed(err string) bool { return strings.Contains(err, "core died after") }

// checkPoolChips checks every chip of a fleet run against its pool's
// recorded digest. Any chip error, a simulated core crash included,
// fails the run and counts as a failed operation.
func checkPoolChips(r *report, workload string, chips []chipOut) {
	crashes := 0
	r.attempted, r.failed = len(chips), 0
	for _, ch := range chips {
		if ch.Error != "" {
			r.check(fmt.Errorf("chip %d: %s", ch.Seed, ch.Error))
			r.failed++
			if crashed(ch.Error) {
				crashes++
			}
		}
		if got, want := digest([]chipOut{ch}), poolDigests[workload][ch.Seed]; got != want {
			r.check(fmt.Errorf("%s chip %d outputs digest %s, recorded %s", workload, ch.Seed, got, want))
		}
	}
	r.set("sim.crashed_chips", "count", float64(crashes), len(chips), "simulated core crashes (each fails the run)")
}

// spawnChild runs one fresh fleet process and decodes its report.
func spawnChild(ctx context.Context, o opts, mode string, stderr io.Writer) (childOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return childOut{}, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace)
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, stderr
	if err := cmd.Run(); err != nil {
		return childOut{}, fmt.Errorf("%s process: %w", mode, err)
	}
	var out childOut
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return childOut{}, fmt.Errorf("decoding %s process report: %w", mode, err)
	}
	return out, nil
}

// runFleet measures fleet-calib or fleet-soak.
func runFleet(ctx context.Context, o opts, r *report, stderr io.Writer) error {
	var kids []childOut
	var ref hostRef
	if !o.trace {
		ref.before = sampleRef()
		for range setupSamples - 1 {
			k, err := spawnChild(ctx, o, "setup", stderr)
			if err != nil {
				return err
			}
			kids = append(kids, k)
		}
	}
	c, err := spawnChild(ctx, o, "run", stderr)
	if err != nil {
		return err
	}
	kids = append(kids, c)
	var setups []float64
	for _, k := range kids {
		setups = append(setups, k.SetupS)
		r.check(checkDigest("canary", digest([]chipOut{k.Canary})))
	}
	for _, e := range c.Errors {
		r.check(fmt.Errorf("%s", e))
	}
	n := len(c.Chips)
	checkPoolChips(r, o.workload, c.Chips)
	idle, span := tailIdle(c.Completions, workers())

	if o.trace {
		if got, want := digest(c.Traced), digest(c.Chips); got != want {
			r.check(fmt.Errorf("traced outputs digest %s differs from untraced %s", got, want))
		}
		for name, e := range c.Layers {
			r.set(name, e.Unit, e.Value, e.N, e.Note)
		}
		r.set("fleet.idle_frac", "frac", idle/(float64(workers())*span), n, "straggler tail, untraced half")
		r.set("trace.overhead_pct", "%", 100*(c.TracedSpanS/c.SpanS-1), n, "traced vs untraced wall, same chips")
		for _, m := range apiLayer {
			r.set(m.Name, m.Unit, 0, 0, "no HTTP layer on this workload")
		}
		return nil
	}
	ref.after = sampleRef()
	ref.record(r)
	r.set("setup_s", "s", median(setups), len(setups), "median over fresh processes")
	r.set("chips_per_min", "chips/min", float64(n)*60/c.SpanS, n, "whole job, straggler tail included")
	r.set("cpu_s_per_chip", "s", c.CPUS/float64(n), n, "process CPU over the job")
	r.set("rss_peak_mb", "MB", c.RSSMB, 1, "VmHWM of the process under test")
	r.set("fleet.idle_frac", "frac", idle/(float64(workers())*span), n, "straggler tail")
	return nil
}

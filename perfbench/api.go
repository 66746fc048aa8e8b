package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"eccspec/internal/fleet"
	"eccspec/internal/workload"
)

// The api-mixed traffic. Submits arrive at random times at about
// half the runner's job capacity at the commit that added the
// benchmark (one job at a time on 2 workers: ~0.8 s for a 1- or
// 2-seed job, ~1.6 s for a 4-seed one, ~1.07 s on average), so the
// queue stays short and sheds stay near zero. In each block of three
// submits the 2-seed job asks for a trace, so every run holds the same
// traced chips.
const (
	submitRate   = 0.45 // jobs per second
	pollPeriod   = 50 * time.Millisecond
	listPeriod   = 500 * time.Millisecond
	scrapePeriod = time.Second
	revalPeriod  = 2 * time.Second
	traceEvery   = 10
	apiJobTicks  = 50
	// apiPrefixJobs are the jobs the recorded digest covers.
	apiPrefixJobs = 4
	// verifyJobs is how many completed jobs are re-run in process and
	// compared field-exact with their /results.
	verifyJobs = 2
	drainLimit = 60 * time.Second
)

// seedShapes is the job-size mix: each block of three consecutive
// submits is a seeded permutation of these seed counts.
var seedShapes = []int{1, 2, 4}

// tracedShape is the seed count of the job in each block that asks for
// a trace.
const tracedShape = 2

// apiJob is one submitted job as the client sees it.
type apiJob struct {
	idx      int
	spec     jobSpec
	due      time.Time
	id       string
	shed     bool
	etag     string
	doneSeen time.Time
	elapsedS float64
	results  []byte
	err      error
}

// apiRun is the state the generator's ops share.
type apiRun struct {
	c         *apiClient
	end       time.Time // end of the timed window
	mu        sync.Mutex
	jobs      []*apiJob
	submitted int // jobs whose submit was sent (for list offsets)
	rnd       *rand.Rand
	maxDepth  float64
	sheds     []error // one per 429: nil when well-formed
}

// fail records a job's first error; a job's results and trace reads
// can run at once.
func (a *apiRun) fail(j *apiJob, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if j.err == nil {
		j.err = err
	}
}

// tableII lists the paper's Table II workloads.
func tableII() []string {
	var names []string
	suites := workload.Suites()
	for _, s := range workload.SuiteNames() {
		for _, p := range suites[s] {
			names = append(names, p.Name)
		}
	}
	return names
}

// apiSchedule draws the seeded submit schedule for a window of the
// given length: arrival offsets and job specs. The window holds
// submitRate × seconds arrivals, rounded to whole blocks of the shape
// mix, at uniformly random times — a Poisson process conditioned on its
// count, so every run offers the same number of jobs and chips and
// only their order, timing and workloads vary with the seed. Specs are
// drawn from their own stream, so a longer window extends a shorter
// one's job list.
func apiSchedule(seed uint64, seconds float64) (offsets []time.Duration, specs []jobSpec) {
	block := len(seedShapes)
	n := max(1, int(math.Round(submitRate*seconds/float64(block)))) * block
	times := rand.New(rand.NewSource(int64(seed)))
	for range n {
		offsets = append(offsets, time.Duration(times.Float64()*seconds*float64(time.Second)))
	}
	slices.Sort(offsets)

	rnd := rand.New(rand.NewSource(int64(seed) + 3))
	names := tableII()
	chip := seed*1_000_000 + 500_000
	var perm []int
	for range n {
		if len(perm) == 0 {
			perm = rnd.Perm(block)
		}
		spec := jobSpec{Workload: names[rnd.Intn(len(names))], Seconds: apiJobTicks * tickSeconds}
		if seedShapes[perm[0]] == tracedShape {
			spec.TraceEvery = traceEvery
		}
		for range seedShapes[perm[0]] {
			spec.Seeds = append(spec.Seeds, chip)
			chip++
		}
		perm = perm[1:]
		specs = append(specs, spec)
	}
	return offsets, specs
}

// nextPoll is the first point of a job's poll grid (due + k*period)
// after now.
func nextPoll(due, now time.Time) time.Time {
	k := now.Sub(due)/pollPeriod + 1
	return due.Add(k * pollPeriod)
}

func (a *apiRun) submit(j *apiJob) *genOp {
	return &genOp{due: j.due, kind: "submit", run: func(ctx context.Context) (bool, []*genOp) {
		a.mu.Lock()
		a.submitted++
		a.mu.Unlock()
		code, hdr, body, err := a.c.do(ctx, "POST", "/v1/fleets", j.spec, nil)
		switch {
		case err != nil:
			a.fail(j, fmt.Errorf("submit: %w", err))
			return false, nil
		case code == http.StatusTooManyRequests:
			j.shed = true
			a.mu.Lock()
			a.sheds = append(a.sheds, checkShed(hdr, body))
			a.mu.Unlock()
			return false, nil
		case code != http.StatusAccepted:
			a.fail(j, fmt.Errorf("submit: status %d: %s", code, body))
			return false, nil
		}
		var st statusBody
		if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
			a.fail(j, fmt.Errorf("submit response %q: %v", body, err))
			return false, nil
		}
		j.id = st.ID
		return true, []*genOp{a.poll(j, nextPoll(j.due, time.Now()))}
	}}
}

// checkShed verifies a 429 carries the documented headers and a JSON
// error body; nil means well-formed.
func checkShed(hdr http.Header, body []byte) error {
	for _, h := range []string{"Retry-After", "X-Queue-Depth", "X-Queue-Capacity"} {
		if _, err := strconv.Atoi(hdr.Get(h)); err != nil {
			return fmt.Errorf("429 without a numeric %s header", h)
		}
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		return fmt.Errorf("429 body %q is not a JSON error", body)
	}
	return nil
}

func (a *apiRun) poll(j *apiJob, due time.Time) *genOp {
	return &genOp{due: due, kind: "status", run: func(ctx context.Context) (bool, []*genOp) {
		code, _, body, err := a.c.do(ctx, "GET", "/v1/fleets/"+j.id, nil, nil)
		now := time.Now()
		var st statusBody
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(body, &st)
		} else if err == nil {
			err = fmt.Errorf("status %d", code)
		}
		if err != nil {
			a.fail(j, fmt.Errorf("status %s: %w", j.id, err))
			return false, nil
		}
		switch st.Status {
		case "queued", "running":
			return true, []*genOp{a.poll(j, nextPoll(j.due, now))}
		case "done":
			j.doneSeen, j.elapsedS = now, st.ElapsedS
			next := []*genOp{a.results(j, now)}
			if j.spec.TraceEvery > 0 {
				next = append(next, a.trace(j, now))
			}
			return true, next
		default:
			a.fail(j, fmt.Errorf("job %s ended %s", j.id, st.Status))
			return false, nil
		}
	}}
}

func (a *apiRun) results(j *apiJob, due time.Time) *genOp {
	return &genOp{due: due, kind: "results", run: func(ctx context.Context) (bool, []*genOp) {
		code, hdr, body, err := a.c.do(ctx, "GET", "/v1/fleets/"+j.id+"/results", nil, nil)
		if err != nil || code != http.StatusOK {
			a.fail(j, fmt.Errorf("results %s: %d %v", j.id, code, err))
			return false, nil
		}
		j.results, j.etag = body, hdr.Get("ETag")
		return true, a.revalidate(j, due.Add(revalPeriod))
	}}
}

// revalidate schedules If-None-Match re-reads every revalPeriod while
// the window lasts.
func (a *apiRun) revalidate(j *apiJob, due time.Time) []*genOp {
	if !due.Before(a.end) || j.etag == "" {
		return nil
	}
	return []*genOp{{due: due, kind: "results", run: func(ctx context.Context) (bool, []*genOp) {
		code, _, _, err := a.c.do(ctx, "GET", "/v1/fleets/"+j.id+"/results", nil,
			map[string]string{"If-None-Match": j.etag})
		ok := err == nil && (code == http.StatusNotModified || code == http.StatusOK)
		return ok, a.revalidate(j, due.Add(revalPeriod))
	}}}
}

func (a *apiRun) trace(j *apiJob, due time.Time) *genOp {
	return &genOp{due: due, kind: "trace", run: func(ctx context.Context) (bool, []*genOp) {
		code, _, body, err := a.c.do(ctx, "GET", "/v1/fleets/"+j.id+"/trace", nil, nil)
		if err != nil || code != http.StatusOK || !strings.HasPrefix(string(body), "seed,time,") {
			a.fail(j, fmt.Errorf("trace %s: %d %v", j.id, code, err))
			return false, nil
		}
		return true, nil
	}}
}

func (a *apiRun) list(due time.Time) *genOp {
	return &genOp{due: due, kind: "list", run: func(ctx context.Context) (bool, []*genOp) {
		a.mu.Lock()
		off := a.rnd.Intn(a.submitted + 1)
		a.mu.Unlock()
		code, _, _, err := a.c.do(ctx, "GET", fmt.Sprintf("/v1/fleets?limit=10&offset=%d", off), nil, nil)
		return err == nil && code == http.StatusOK, nil
	}}
}

func (a *apiRun) scrape(due time.Time) *genOp {
	return &genOp{due: due, kind: "metrics", run: func(ctx context.Context) (bool, []*genOp) {
		m, err := a.c.scrape(ctx)
		if err != nil {
			return false, nil
		}
		a.mu.Lock()
		a.maxDepth = max(a.maxDepth, m["eccspecd_queue_depth"])
		a.mu.Unlock()
		return true, nil
	}}
}

// setupDaemon starts a daemon on a fresh data dir and times it from
// spawn to its warm-up (canary) chip's result.
func setupDaemon(ctx context.Context, o opts) (*daemon, float64, chipOut, error) {
	tmp := filepath.Join(o.bin, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, 0, chipOut{}, err
	}
	dir, err := os.MkdirTemp(tmp, "api-")
	if err != nil {
		return nil, 0, chipOut{}, err
	}
	t0 := time.Now()
	d, err := startDaemon(o.bin, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, chipOut{}, err
	}
	c := newClient(d.base, 1)
	defer c.close()
	spec := jobSpec{Seeds: []uint64{canarySeed}, Workload: benchWorkload, Seconds: canaryTicks * tickSeconds}
	done, res, err := c.awaitJob(ctx, spec, 5*time.Millisecond)
	if err != nil || len(res.PerChip) != 1 {
		d.kill()
		os.RemoveAll(dir)
		return nil, 0, chipOut{}, fmt.Errorf("warm-up job: %v (%d chips)", err, len(res.PerChip))
	}
	return d, done.Sub(t0).Seconds(), res.PerChip[0], nil
}

// runAPI measures api-mixed.
func runAPI(ctx context.Context, o opts, r *report) error {
	var setups []float64
	samples := setupSamples
	if o.trace {
		samples = 1
	}
	var d *daemon
	var ref hostRef
	if !o.trace {
		ref.before = sampleRef()
	}
	for i := range samples {
		dd, s, canary, err := setupDaemon(ctx, o)
		if err != nil {
			return err
		}
		setups = append(setups, s)
		r.check(checkDigest("canary", digest([]chipOut{canary})))
		if i < samples-1 {
			if err := dd.stop(); err != nil {
				return err
			}
			os.RemoveAll(dd.dataDir)
			continue
		}
		d = dd
	}
	defer os.RemoveAll(d.dataDir)
	defer d.kill()

	c := newClient(d.base, workers())
	defer c.close()
	before, err := c.scrape(ctx)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}

	start := time.Now()
	a := &apiRun{c: c, end: start.Add(time.Duration(o.seconds * float64(time.Second))),
		rnd: rand.New(rand.NewSource(int64(o.seed) + 1))}
	offsets, specs := apiSchedule(o.seed, o.seconds)
	var ops []*genOp
	for i, off := range offsets {
		j := &apiJob{idx: i, spec: specs[i], due: start.Add(off)}
		a.jobs = append(a.jobs, j)
		ops = append(ops, a.submit(j))
	}
	for t := start.Add(listPeriod); t.Before(a.end); t = t.Add(listPeriod) {
		ops = append(ops, a.list(t))
	}
	for t := start.Add(scrapePeriod); t.Before(a.end); t = t.Add(scrapePeriod) {
		ops = append(ops, a.scrape(t))
	}
	gctx, cancel := context.WithDeadline(ctx, a.end.Add(drainLimit))
	records, err := runOpenLoop(gctx, ops, workers())
	cancel()
	if err != nil {
		return fmt.Errorf("generator: %w", err)
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return err
	}
	after, err := c.scrape(ctx)
	if err != nil {
		return err
	}
	journal, err := os.Stat(filepath.Join(d.dataDir, "journal.jsonl"))
	if err != nil {
		return err
	}
	c.close()
	if err := d.stop(); err != nil {
		return err
	}
	if !o.trace {
		ref.after = sampleRef()
	}

	// Correctness: every op, every job, every 429.
	for _, e := range a.sheds {
		r.check(e)
	}
	var done []*apiJob
	var chips, failed, crashes int
	var spans []interval
	var jobS, runS []float64
	idleCore, busyCore := 0.0, 0.0
	for _, j := range a.jobs {
		r.check(j.err)
		if j.shed || j.err != nil {
			continue
		}
		var res resultsBody
		if err := json.Unmarshal(j.results, &res); err != nil {
			r.check(fmt.Errorf("job %s results: %w", j.id, err))
			continue
		}
		if res.Chips != len(j.spec.Seeds) {
			r.check(fmt.Errorf("job %s: %d chips in /results, submitted %d", j.id, res.Chips, len(j.spec.Seeds)))
		}
		for _, ch := range res.PerChip {
			if ch.Error != "" {
				r.check(fmt.Errorf("job %s chip %d: %s", j.id, ch.Seed, ch.Error))
				failed++
				if crashed(ch.Error) {
					crashes++
				}
			}
		}
		done = append(done, j)
		chips += len(j.spec.Seeds)
		spans = append(spans, interval{j.due, j.doneSeen})
		jobS = append(jobS, j.doneSeen.Sub(j.due).Seconds())
		runS = append(runS, j.elapsedS)
		w := float64(workers())
		idleCore += j.elapsedS * max(0, w-float64(len(j.spec.Seeds)))
		busyCore += j.elapsedS * w
	}
	if chips == 0 {
		return fmt.Errorf("no job completed")
	}
	if o.seed == defaultSeed && len(done) >= apiPrefixJobs && done[apiPrefixJobs-1].idx == apiPrefixJobs-1 {
		var outs []chipOut
		for _, j := range done[:apiPrefixJobs] {
			var res resultsBody
			json.Unmarshal(j.results, &res)
			outs = append(outs, res.PerChip...)
		}
		r.check(checkDigest("api-mixed", digest(outs)))
	}

	r.attempted, r.failed = chips, failed // chips, then every request below
	r.set("sim.crashed_chips", "count", float64(crashes), chips, "simulated core crashes (each fails the run)")

	var reqMs []float64
	byKind := map[string][]float64{}
	var lagMs []float64
	for _, rec := range records {
		r.attempted++
		if !rec.OK {
			r.failed++
		}
		l := ms(rec.latency())
		reqMs = append(reqMs, l)
		byKind[rec.Kind] = append(byKind[rec.Kind], l)
		lagMs = append(lagMs, ms(rec.lag()))
	}

	if err := verifyAPI(ctx, o, done, r); err != nil {
		return err
	}

	for _, k := range []string{"submit", "status", "results", "list", "trace"} {
		r.setQ("eccspecd."+k+"_ms.p50", "ms", percentile(byKind[k], 50))
		r.setQ("eccspecd."+k+"_ms.p99", "ms", percentile(byKind[k], 99))
	}
	reads := float64(len(byKind["results"]))
	r.set("eccspecd.not_modified_frac", "frac",
		(after["eccspecd_http_not_modified_total"]-before["eccspecd_http_not_modified_total"])/reads,
		len(byKind["results"]), "304s per /results read (/metrics delta)")
	r.set("eccspecd.encodes_per_read", "frac",
		(after["eccspecd_result_encodes_total"]-before["eccspecd_result_encodes_total"])/reads,
		len(byKind["results"]), "full encodes per /results read (/metrics delta)")
	waits := queueWaits(jobS, runS)
	r.setQ("admission.queue_wait_s.p50", "s", percentile(waits, 50))
	r.setQ("admission.queue_wait_s.p90", "s", percentile(waits, 90))
	r.set("admission.shed_frac", "frac", float64(len(a.sheds))/float64(len(a.jobs)), len(a.jobs), "429s per submit")
	r.set("admission.queue_depth.max", "count", a.maxDepth, len(byKind["metrics"]), "max over /metrics scrapes")
	r.setQ("fleet.run_s.p50", "s", percentile(runS, 50))
	r.set("fleet.idle_core_frac", "frac", idleCore/busyCore, len(runS), "worker time idle in jobs narrower than the pool")
	r.set("store.journal_kb", "KB", float64(journal.Size())/1024, 1, "journal size after the window")
	r.set("store.retries", "count", after["eccspecd_store_retries_total"]-before["eccspecd_store_retries_total"], 1, "/metrics delta")
	r.setQ("gen.lag_ms.p99", "ms", percentile(lagMs, 99))
	r.setQ("job_s.p50", "s", percentile(jobS, 50))
	r.setQ("job_s.p90", "s", percentile(jobS, 90))
	r.setQ("req_ms.p50", "ms", percentile(reqMs, 50))
	r.setQ("req_ms.p90", "ms", percentile(reqMs, 90))
	r.set("job_s.poll_resolution", "s", pollPeriod.Seconds(), len(jobS), "job_s is seen at this resolution")
	if o.trace {
		return nil
	}
	busy := unionLength(spans).Seconds()
	ref.record(r)
	r.set("setup_s", "s", median(setups), len(setups), "median over fresh daemons")
	r.set("chips_per_min", "chips/min", float64(chips)*60/busy, chips, "per minute of busy time")
	r.set("cpu_s_per_chip", "s", (cpu1-cpu0).Seconds()/float64(chips), chips, "daemon CPU over window and drain")
	r.set("rss_peak_mb", "MB", rss, 1, "VmHWM of eccspecd")
	return nil
}

// verifyAPI re-runs a seeded sample of completed jobs in process and
// compares their /results field-exact. In the traced run the same jobs
// also go through the traced pipeline, which gives api-mixed its
// in-process per-layer numbers.
func verifyAPI(ctx context.Context, o opts, done []*apiJob, r *report) error {
	rnd := rand.New(rand.NewSource(int64(o.seed) + 2))
	eng := fleet.New(fleet.Config{Workers: workers()})
	acc := &layers{}
	var engineS, tracedS, idle, capacity float64
	var chips int
	for _, i := range rnd.Perm(len(done))[:min(verifyJobs, len(done))] {
		j := done[i]
		job := fleet.Job{Seeds: j.spec.Seeds, Workload: j.spec.Workload, Seconds: j.spec.Seconds,
			TraceEvery: j.spec.TraceEvery}
		var completions []float64
		t := time.Now()
		res, err := eng.Run(ctx, job, func(int, int) { completions = append(completions, time.Since(t).Seconds()) })
		engineS += time.Since(t).Seconds()
		chips += len(res)
		i, s := tailIdle(completions, eng.Workers())
		idle, capacity = idle+i, capacity+s*float64(eng.Workers())
		if err != nil {
			return fmt.Errorf("in-process run of %s: %w", j.id, err)
		}
		var got resultsBody
		if err := json.Unmarshal(j.results, &got); err != nil {
			return err
		}
		r.check(compareResults(j.id, got, res))
		if o.trace {
			t := time.Now()
			traced := traceJob(ctx, job, workers(), acc)
			tracedS += time.Since(t).Seconds()
			var outs []chipOut
			for _, c := range traced {
				r.check(c.err)
				outs = append(outs, c.out)
			}
			if digest(outs) != digest(got.PerChip) {
				r.check(fmt.Errorf("job %s: traced outputs differ from /results", j.id))
			}
		}
	}
	if o.trace {
		acc.entries(r)
		r.set("fleet.idle_frac", "frac", idle/capacity, chips, "engine worker time idle, in-process re-run")
		r.set("trace.overhead_pct", "%", 100*(tracedS/engineS-1), chips, "traced vs untraced in-process re-run")
	}
	return nil
}

// compareResults checks a job's /results against an in-process engine
// run of the same job, field for field.
func compareResults(id string, got resultsBody, res []fleet.ChipResult) error {
	want := fleet.Summarize(res)
	if got.Chips != want.Chips || got.Failed != want.Failed || got.TotalTicks != want.TotalTicks ||
		!same(got.MeanReduction, want.MeanReduction) || !same(got.MinReduction, want.MinReduction) ||
		!same(got.MaxReduction, want.MaxReduction) || !same(got.MeanPowerW, want.MeanPowerW) {
		return fmt.Errorf("job %s: /results summary differs from the in-process run", id)
	}
	if len(got.PerChip) != len(res) {
		return fmt.Errorf("job %s: %d chips in /results, %d in process", id, len(got.PerChip), len(res))
	}
	for i, r := range res {
		if digest([]chipOut{got.PerChip[i]}) != digest([]chipOut{outOf(r)}) {
			return fmt.Errorf("job %s: chip %d differs from the in-process run", id, r.Seed)
		}
	}
	return nil
}

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

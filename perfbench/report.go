package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// metricDef names one metric of BENCHMARK.json and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the untraced metrics, measured the same way on every
// workload (see README.md for why job_s, req_ms and sim_ticks_per_s
// are not listed).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"chips_per_min", "chips/min"},
	{"cpu_s_per_chip", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the traced run's metrics: the in-process layers, which
// every workload measures, then the HTTP, admission, store and
// generator layers, which exist on api-mixed only and read 0 on the
// fleet workloads.
var perLayer = append([]metricDef{
	{"eccspec.new_ms", "ms"},
	{"control.calibrate_ms", "ms"},
	{"control.find_onset_ms", "ms"},
	{"control.sweep_steps", "count"},
	{"kernel.first_tick_ms", "ms"},
	{"kernel.warmup_ms", "ms"},
	{"chip.step_us", "us"},
	{"control.tick_us", "us"},
	{"engine.tick_self_us", "us"},
	{"share.calibrate_pct", "%"},
	{"share.step_tick_pct", "%"},
	{"snapshot.capture_ms", "ms"},
	{"snapshot.restore_ms", "ms"},
	{"snapshot.blob_kb", "KB"},
	{"fleet.idle_frac", "frac"},
	{"trace.overhead_pct", "%"},
	{"sim.vdd_reduction_pct", "%"},
	{"sim.emergencies", "count"},
	{"sim.crashed_chips", "count"},
}, apiLayer...)

// apiLayer are the per-layer metrics of eccspecd's own layers, measured
// on api-mixed by both its runs.
var apiLayer = []metricDef{
	{"eccspecd.submit_ms.p50", "ms"},
	{"eccspecd.submit_ms.p99", "ms"},
	{"eccspecd.status_ms.p50", "ms"},
	{"eccspecd.status_ms.p99", "ms"},
	{"eccspecd.results_ms.p50", "ms"},
	{"eccspecd.results_ms.p99", "ms"},
	{"eccspecd.list_ms.p50", "ms"},
	{"eccspecd.list_ms.p99", "ms"},
	{"eccspecd.trace_ms.p50", "ms"},
	{"eccspecd.trace_ms.p99", "ms"},
	{"eccspecd.not_modified_frac", "frac"},
	{"eccspecd.encodes_per_read", "frac"},
	{"admission.queue_wait_s.p50", "s"},
	{"admission.queue_wait_s.p90", "s"},
	{"admission.shed_frac", "frac"},
	{"admission.queue_depth.max", "count"},
	{"fleet.run_s.p50", "s"},
	{"fleet.idle_core_frac", "frac"},
	{"store.journal_kb", "KB"},
	{"store.retries", "count"},
	{"gen.lag_ms.p99", "ms"},
}

// entry is one measured value with its sample count and a note (the
// percentile the rule allowed, or what the number is compared with).
type entry struct {
	Value float64
	Unit  string
	N     int
	Note  string
}

// report collects one run's measurements and correctness checks.
type report struct {
	vals      map[string]entry
	order     []string
	errs      []error
	attempted int
	failed    int
}

func newReport() *report { return &report{vals: map[string]entry{}} }

func (r *report) set(name, unit string, v float64, n int, note string) {
	if _, ok := r.vals[name]; !ok {
		r.order = append(r.order, name)
	}
	r.vals[name] = entry{Value: v, Unit: unit, N: n, Note: note}
}

// setQ records a percentile with the rank the rule allowed.
func (r *report) setQ(name, unit string, q quantile) {
	note := ""
	if q.N > 0 {
		note = fmt.Sprintf("p%.1f", q.P)
	}
	r.set(name, unit, q.Value, q.N, note)
}

// check records a failed correctness check; nil is a pass.
func (r *report) check(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// write prints every measurement as a table, the host fingerprint, and
// as the last line the result object holding the catalogue's metrics.
// It returns the process exit code: 1 when any check failed.
func (r *report) write(w io.Writer, fp fingerprint, catalogue []metricDef) int {
	// Catalogue metrics first, in catalogue order; the rest by name.
	pos := func(name string) int {
		for i, m := range catalogue {
			if m.Name == name {
				return i
			}
		}
		return len(catalogue)
	}
	names := slices.Clone(r.order)
	slices.SortStableFunc(names, func(a, b string) int {
		if c := cmp.Compare(pos(a), pos(b)); c != 0 {
			return c
		}
		return strings.Compare(a, b)
	})
	for _, name := range names {
		e := r.vals[name]
		fmt.Fprintf(w, "%-30s %14.6g %-10s n=%-6d %s\n", name, e.Value, e.Unit, e.N, e.Note)
	}
	fpb, _ := json.Marshal(fp)
	fmt.Fprintf(w, "fingerprint %s\n", fpb)

	res := resultJSON{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricJSON{}}
	for _, m := range catalogue {
		e, ok := r.vals[m.Name]
		switch {
		case !ok:
			r.check(fmt.Errorf("metric %s was not measured", m.Name))
		case e.Unit != m.Unit:
			r.check(fmt.Errorf("metric %s measured in %s, catalogue says %s", m.Name, e.Unit, m.Unit))
		}
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			r.check(fmt.Errorf("metric %s is %v", m.Name, e.Value))
			e.Value = 0
		}
		res.Metrics[m.Name] = metricJSON{Value: e.Value, Unit: m.Unit}
	}
	for _, err := range r.errs {
		fmt.Fprintf(w, "CHECK FAILED: %v\n", err)
	}
	res.Correct = len(r.errs) == 0
	b, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

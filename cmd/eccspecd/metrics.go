package main

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// metrics holds the daemon's monotonic counters. Queue-state gauges
// are read off the job table at scrape time; only the counters that
// must survive job deletion live here.
type metrics struct {
	start          time.Time
	jobsSubmitted  atomic.Int64
	jobsDone       atomic.Int64
	jobsFailed     atomic.Int64
	jobsEvicted    atomic.Int64
	jobsShed       atomic.Int64
	jobsCanceled   atomic.Int64
	rateLimited    atomic.Int64
	notModified    atomic.Int64
	resultEncodes  atomic.Int64
	chipsSimulated atomic.Int64
	chipsFailed    atomic.Int64
	simTicks       atomic.Int64
	// Adaptive-fidelity telemetry, accumulated from each finished chip's
	// counters (full-fidelity chips contribute zeros).
	fidelityFFTicks   atomic.Int64
	fidelityDropbacks atomic.Int64
}

// sample is one metric in the exposition: gauges carry a float64
// (rendered %g), counters an int64 (rendered %d).
type sample struct {
	name, typ, help string
	value           any
}

// handleMetrics renders the Prometheus text exposition format (version
// 0.0.4). Every sample is declared here once, in exposition order: the
// daemon-owned counters above, plus gauges read off live state at
// scrape time — the job table (under one lock), the admission queue,
// journal health, and on a coordinator one Stats and one membership
// count.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	queued, running := 0, 0
	for _, j := range s.jobs {
		switch j.Status {
		case statusQueued:
			queued++
		case statusRunning:
			running++
		}
	}
	s.mu.Unlock()
	var storeRetries int64
	if s.cfg.store != nil {
		storeRetries = s.cfg.store.Retries()
	}
	degraded := 0.0
	if s.degraded.Load() {
		degraded = 1
	}
	m := s.metrics
	up := s.now().Sub(m.start).Seconds()
	ticks := m.simTicks.Load()
	rate := 0.0
	if up > 0 {
		rate = float64(ticks) / up
	}
	const gauge, counter = "gauge", "counter"
	samples := []sample{
		{"eccspecd_jobs_queued", gauge, "Fleet jobs waiting for the runner.", float64(queued)},
		{"eccspecd_jobs_running", gauge, "Fleet jobs currently simulating.", float64(running)},
		{"eccspecd_queue_depth", gauge, "Jobs currently held in the bounded admission queue.", float64(s.queue.Depth())},
		{"eccspecd_queue_capacity", gauge, "Admission queue bound; submissions past it are shed with 429.", float64(s.queue.Capacity())},
		{"eccspecd_jobs_submitted_total", counter, "Fleet jobs accepted since start.", m.jobsSubmitted.Load()},
		{"eccspecd_jobs_done_total", counter, "Fleet jobs completed successfully.", m.jobsDone.Load()},
		{"eccspecd_jobs_failed_total", counter, "Fleet jobs that failed or were cancelled.", m.jobsFailed.Load()},
		{"eccspecd_jobs_evicted_total", counter, "Completed fleet jobs evicted by the retention policy.", m.jobsEvicted.Load()},
		{"eccspecd_jobs_shed_total", counter, "Submissions refused with 429 because the admission queue was full.", m.jobsShed.Load()},
		{"eccspecd_jobs_canceled_total", counter, "Jobs canceled by client DELETE.", m.jobsCanceled.Load()},
		{"eccspecd_rate_limited_total", counter, "Requests refused with 429 by the per-client rate limit.", m.rateLimited.Load()},
		{"eccspecd_http_not_modified_total", counter, "Conditional GETs answered 304 without re-serializing results.", m.notModified.Load()},
		{"eccspecd_result_encodes_total", counter, "Full serializations of a /results response body.", m.resultEncodes.Load()},
		{"eccspecd_chips_simulated_total", counter, "Chip simulations completed.", m.chipsSimulated.Load()},
		{"eccspecd_chips_failed_total", counter, "Chip simulations that ended in an error (including recovered worker panics).", m.chipsFailed.Load()},
		{"eccspecd_store_retries_total", counter, "Journal commit points that needed the bounded-retry path.", storeRetries},
		{"eccspecd_degraded", gauge, "1 while the journal is unwritable and new fleets get 503s.", degraded},
		{"eccspecd_sim_ticks_total", counter, "Control ticks simulated across all fleets.", ticks},
		{"eccspecd_fidelity_fastforward_ticks_total", counter, "Control ticks simulated in adaptive fast-forward mode.", m.fidelityFFTicks.Load()},
		{"eccspecd_fidelity_dropback_total", counter, "Adaptive-fidelity drop-backs to full event sampling.", m.fidelityDropbacks.Load()},
		{"eccspecd_sim_ticks_per_second", gauge, "Lifetime average simulation throughput.", rate},
		{"eccspecd_uptime_seconds", gauge, "Seconds since the daemon started.", up},
	}
	if c := s.cfg.coordinator; c != nil {
		st := c.Stats()
		counts := c.Membership().Counts()
		samples = append(samples,
			sample{"eccspecd_cluster_workers_healthy", gauge, "Registered workers accepting work.", float64(counts.Healthy)},
			sample{"eccspecd_cluster_workers_degraded", gauge, "Registered workers reporting degraded; no new work.", float64(counts.Degraded)},
			sample{"eccspecd_cluster_workers_quarantined", gauge, "Workers tripped by the dispatch circuit breaker, awaiting a half-open probe.", float64(counts.Quarantined)},
			sample{"eccspecd_cluster_workers_dead", gauge, "Registered workers past the heartbeat TTL or failed mid-batch.", float64(counts.Dead)},
			sample{"eccspecd_cluster_dispatches_total", counter, "Chip batches dispatched to workers.", st.Dispatches},
			sample{"eccspecd_cluster_chips_done_total", counter, "Chips completed on remote workers.", st.ChipsDone},
			sample{"eccspecd_cluster_remote_ticks_total", counter, "Control ticks simulated on remote workers.", st.RemoteTicks},
			sample{"eccspecd_cluster_chips_stolen_total", counter, "Chips moved from a loaded worker's queue to an idle one.", st.ChipsStolen},
			sample{"eccspecd_cluster_chips_migrated_total", counter, "In-flight chips re-queued off a dead, degraded, or failed-dispatch worker.", st.ChipsMigrated},
			sample{"eccspecd_cluster_dispatch_retries_total", counter, "Dispatch re-attempts scheduled by the backoff loop after a failure.", st.Retries},
			sample{"eccspecd_cluster_streams_stalled_total", counter, "Exec streams the stall watchdog canceled for silence.", st.StreamsStalled},
			sample{"eccspecd_cluster_dup_events_total", counter, "Stream events dropped by sequence-number dedupe.", st.DupEvents},
			sample{"eccspecd_cluster_quarantines_total", counter, "Workers quarantined by the dispatch circuit breaker since start.", c.Membership().Quarantines()},
		)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, x := range samples {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", x.name, x.help, x.name, x.typ, x.name, x.value)
	}
}

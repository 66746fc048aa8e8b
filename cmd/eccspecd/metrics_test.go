package main

// Golden /metrics exposition. The daemon's Prometheus page is parsed by
// name and line order (dashboards, the perfbench harness, the cluster
// tests), so the rendered bytes are pinned for both roles: a standalone
// daemon and a coordinator, each with fixed counter values. Only the two
// wall-clock samples (uptime and the lifetime tick rate) are masked.
//
// Regenerate deliberately with:
//
//	go test ./cmd/eccspecd -run TestGoldenMetrics -update-golden

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"eccspec/internal/cluster"
)

// wallClockSample matches the value of the samples that depend on how
// long the daemon has been up.
var wallClockSample = regexp.MustCompile(`(?m)^(eccspecd_uptime_seconds|eccspecd_sim_ticks_per_second) .*$`)

// renderMetrics scrapes /metrics off s and masks the wall-clock values.
func renderMetrics(t *testing.T, s *server) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("Content-Type %q", ct)
	}
	return wallClockSample.ReplaceAll(rec.Body.Bytes(), []byte("$1 <masked>"))
}

// setCounters gives every daemon-owned counter a distinct fixed value,
// large enough that a counter rendered as a float would show it.
func setCounters(m *metrics) {
	for i, c := range []interface{ Store(int64) }{
		&m.jobsSubmitted, &m.jobsDone, &m.jobsFailed, &m.jobsEvicted,
		&m.jobsShed, &m.jobsCanceled, &m.rateLimited, &m.notModified,
		&m.resultEncodes, &m.chipsSimulated, &m.chipsFailed, &m.simTicks,
		&m.fidelityFFTicks, &m.fidelityDropbacks,
	} {
		c.Store(int64(1000003 * (i + 1)))
	}
}

// addJobs puts jobs straight into the table so the queued/running
// gauges have content without a runner picking them up.
func addJobs(s *server, statuses ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, st := range statuses {
		id := "f-" + string(rune('a'+i))
		s.jobs[id] = &fleetJob{ID: id, Status: st}
	}
}

func TestGoldenMetrics(t *testing.T) {
	standalone, _ := newStubServer(t, &stubRunner{}, serverConfig{queueDepth: 4})
	setCounters(standalone.metrics)
	addJobs(standalone, statusQueued, statusQueued, statusRunning, statusDone)
	standalone.degraded.Store(true)

	members := cluster.NewMembership(time.Hour)
	members.SetQuarantinePolicy(1, time.Hour)
	for _, id := range []string{"alpha", "beta", "gamma", "delta", "eps"} {
		members.Join(cluster.RegisterRequest{ID: id, URL: "http://" + id, Slots: 2})
	}
	members.Heartbeat(cluster.HeartbeatRequest{ID: "beta", Degraded: true, Reason: "disk"})
	members.RecordExecFailure("gamma", "dial refused")
	members.MarkDead("delta", "stream broke")
	coord := cluster.New(cluster.Config{Membership: members, WorkerWait: time.Second})
	coordinator, _ := newStubServer(t, &stubRunner{}, serverConfig{queueDepth: 8, coordinator: coord})
	setCounters(coordinator.metrics)
	addJobs(coordinator, statusRunning)

	for name, s := range map[string]*server{
		"metrics_standalone.txt":  standalone,
		"metrics_coordinator.txt": coordinator,
	} {
		got := renderMetrics(t, s)
		path := filepath.Join("testdata", "golden", name)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update-golden): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverged from the golden exposition\n--- got ---\n%s\n--- want ---\n%s",
				name, got, want)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestDigestMismatchFailsTheRun checks that a wrong output turns into
// correct=false and a non-zero exit code.
func TestDigestMismatchFailsTheRun(t *testing.T) {
	good := []chipOut{{Seed: 7, DomainVdd: []float64{0.7, 0.71}, AvgPowerW: 3.5, Ticks: 50}}
	bad := []chipOut{{Seed: 7, DomainVdd: []float64{0.7, 0.7100000000000001}, AvgPowerW: 3.5, Ticks: 50}}
	if digest(good) == digest(bad) {
		t.Fatal("digest does not see a one-ulp change")
	}
	recorded["test"] = digest(good)
	defer delete(recorded, "test")

	for _, c := range []struct {
		chips []chipOut
		code  int
	}{{good, 0}, {bad, 1}} {
		r := newReport()
		r.attempted = 1
		for _, m := range endToEnd {
			r.set(m.Name, m.Unit, 1.5, 5, "")
		}
		r.check(checkDigest("test", digest(c.chips)))
		var out bytes.Buffer
		if code := r.write(&out, fingerprint{}, endToEnd); code != c.code {
			t.Errorf("exit code %d, want %d", code, c.code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res resultJSON
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v", err)
		}
		if res.Correct != (c.code == 0) {
			t.Errorf("correct=%v with exit code %d", res.Correct, c.code)
		}
	}
	var out bytes.Buffer
	if code := newReport().write(&out, fingerprint{}, endToEnd); code != 1 {
		t.Errorf("a run that measured nothing exited %d", code)
	}
	if checkDigest("no-such-workload", "x") == nil {
		t.Error("a digest with nothing recorded passed")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metrics the code emits
// and the ones BENCHMARK.json lists in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code emits %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), code %s (%s)", what, i,
					got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, fleet := fleetShapes[w.Name]; !fleet && w.Name != "api-mixed" {
			t.Errorf("BENCHMARK.json workload %q is not one the benchmark runs", w.Name)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	m := parseMetrics([]byte("# HELP x\n# TYPE x counter\neccspecd_queue_depth 3\neccspecd_store_retries_total 0\n"))
	if m["eccspecd_queue_depth"] != 3 || len(m) != 2 {
		t.Errorf("parsed %v", m)
	}
}

// TestPoolDrawsAreRecorded checks that every chip a fleet workload can
// draw has a recorded digest, so every run is checked chip by chip, and
// that the draw depends only on the workload seed.
func TestPoolDrawsAreRecorded(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		for name, seeds := range map[string][]uint64{
			"fleet-calib": calibSeeds(seed, 63), "fleet-soak": soakSeeds(seed, 10)} {
			seen := map[uint64]bool{}
			for _, s := range seeds {
				if _, ok := poolDigests[name][s]; !ok || seen[s] {
					t.Fatalf("%s seed %d drew chip %d: recorded %v, repeated %v", name, seed, s, ok, seen[s])
				}
				seen[s] = true
			}
		}
	}
	if a, b := calibSeeds(7, 63), calibSeeds(7, 63); !slices.Equal(a, b) {
		t.Error("the same workload seed drew different chips")
	}
	if len(calibDigests) != calibPoolSize {
		t.Errorf("%d fleet-calib digests recorded, pool has %d chips", len(calibDigests), calibPoolSize)
	}
}

// TestChipErrorFailsTheRun checks that a chip error fails the run even
// when the chip's outputs match the record, a simulated core crash
// included, and that a wrong output fails it too.
func TestChipErrorFailsTheRun(t *testing.T) {
	const seed = 7000000
	saved := soakDigests[seed]
	defer func() { soakDigests[seed] = saved }()
	healthy := chipOut{Seed: seed, Ticks: 25000}
	soakDigests[seed] = digest([]chipOut{healthy})
	for _, c := range []struct {
		chip    chipOut
		ok      bool
		crashes float64
	}{
		{healthy, true, 0},
		{chipOut{Seed: seed, Ticks: 25000, Error: "core died after 124 ticks"}, false, 1},
		{chipOut{Seed: seed, Ticks: 25000, Error: "calibrate: no onset"}, false, 0},
		{chipOut{Seed: seed, Ticks: 24999}, false, 0},
	} {
		r := newReport()
		checkPoolChips(r, "fleet-soak", []chipOut{c.chip})
		if (len(r.errs) == 0) != c.ok || r.vals["sim.crashed_chips"].Value != c.crashes {
			t.Errorf("chip %+v: errors %v, crashed %v", c.chip, r.errs, r.vals["sim.crashed_chips"].Value)
		}
		wantFailed := 0
		if c.chip.Error != "" {
			wantFailed = 1
		}
		if r.failed != wantFailed {
			t.Errorf("chip %+v: %d failed, want %d", c.chip, r.failed, wantFailed)
		}
	}
}

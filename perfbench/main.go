// Command perfbench is eccspec's end-to-end benchmark. Each run
// measures one workload for a fixed number of seconds and prints every
// metric by name with its unit and sample count, the host fingerprint,
// and as its last line one JSON result object. It checks that the
// program's outputs are correct and exits non-zero when they are not.
//
// Run it through run.sh, which builds this package and the eccspecd
// daemon from the checkout's sources:
//
//	bash perfbench/run.sh --workload fleet-calib --seed 1 --seconds 25 --trace 0
//
// Workloads (README.md gives the reasons and the layer map):
//
//	fleet-calib  one in-process fleet.Engine job of many 50-tick chips:
//	             calibration and kernel build do the work
//	fleet-soak   one in-process job of a few 25k-tick chips checkpointing
//	             every 1000 ticks: the steady tick does the work
//	api-mixed    a real eccspecd under an open-loop mix of submits,
//	             status polls, result reads, traces and list reads
//
// --trace 0 measures the end-to-end metrics untraced; --trace 1 makes
// a separate traced run that times each layer's public calls and
// reports the per-layer metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// opts are one run's settings.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository root (the checkout)
	bin      string // directory holding the built eccspecd
	commit   string
	child    string // internal: the fleet process under test
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o opts
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "fleet-calib, fleet-soak or api-mixed")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 25, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.bin, "bin", ".bench_build", "directory with the built eccspecd")
	fs.StringVar(&o.commit, "commit", "none", "commit being measured, when known")
	fs.StringVar(&o.child, "child", "", "internal: run as the fleet process under test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A run must end within 180 s; past this, stop and report failure.
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	if o.child != "" {
		if err := fleetChild(ctx, o, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench child: %v\n", err)
			return 1
		}
		return 0
	}

	r := newReport()
	var err error
	switch o.workload {
	case "fleet-calib", "fleet-soak":
		err = runFleet(ctx, o, r, stderr)
	case "api-mixed":
		err = runAPI(ctx, o, r)
	default:
		err = fmt.Errorf("unknown workload %q (fleet-calib, fleet-soak, api-mixed)", o.workload)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	catalogue := endToEnd
	if o.trace {
		catalogue = perLayer
	}
	return r.write(stdout, hostFingerprint(o.root, o.commit), catalogue)
}

// runLimit bounds one run, set-up and verification included.
const runLimit = 170 * time.Second

// workers is the simulation concurrency every workload runs with.
func workers() int { return runtime.NumCPU() }

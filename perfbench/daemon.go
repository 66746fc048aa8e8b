package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// daemon is one eccspecd process under test.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	dataDir string
	exited  chan struct{}
}

// startDaemon spawns eccspecd on a free loopback port with its journal
// in dataDir and waits for its "listening on" line.
func startDaemon(bin, dataDir string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(bin, "eccspecd"), "-addr", "127.0.0.1:0", "-data-dir", dataDir)
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting eccspecd: %w", err)
	}
	d := &daemon{cmd: cmd, dataDir: dataDir, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Read the log to the end so the daemon never blocks on a full
		// pipe; the first "listening on" line carries the address.
		sc := bufio.NewScanner(errPipe)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "listening on "); ok && !announced {
				announced = true
				addr <- strings.Fields(a)[0]
			}
			if strings.Contains(line, "panic") || strings.Contains(line, "error") {
				fmt.Fprintf(os.Stderr, "eccspecd: %s\n", line)
			}
		}
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("eccspecd exited before listening")
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("eccspecd did not start listening within 30s")
	}
}

// stop asks the daemon to drain and waits for it to exit.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("eccspecd did not drain within 60s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// apiClient talks to one daemon over at most `conns` connections.
type apiClient struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *apiClient {
	return &apiClient{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status, headers and body.
func (c *apiClient) do(ctx context.Context, method, path string, body any, hdr map[string]string) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// jobSpec is a submit body.
type jobSpec struct {
	Seeds      []uint64 `json:"seeds"`
	Workload   string   `json:"workload"`
	Seconds    float64  `json:"seconds"`
	TraceEvery int      `json:"trace_every,omitempty"`
}

// statusBody is the part of a job status the benchmark reads.
type statusBody struct {
	ID       string  `json:"id"`
	Status   string  `json:"status"`
	ElapsedS float64 `json:"elapsed_s"`
}

// resultsBody is the part of /results the benchmark verifies.
type resultsBody struct {
	Status        string    `json:"status"`
	Chips         int       `json:"chips"`
	Failed        int       `json:"failed"`
	MeanReduction float64   `json:"mean_reduction"`
	MinReduction  float64   `json:"min_reduction"`
	MaxReduction  float64   `json:"max_reduction"`
	MeanPowerW    float64   `json:"mean_power_w"`
	TotalTicks    int64     `json:"total_ticks"`
	PerChip       []chipOut `json:"per_chip"`
}

// awaitJob submits spec and polls its status every period until it is
// done, returning the time the done status arrived and its results.
func (c *apiClient) awaitJob(ctx context.Context, spec jobSpec, period time.Duration) (time.Time, resultsBody, error) {
	var res resultsBody
	code, _, body, err := c.do(ctx, "POST", "/v1/fleets", spec, nil)
	if err != nil || code != http.StatusAccepted {
		return time.Time{}, res, fmt.Errorf("submit: status %d: %v %s", code, err, body)
	}
	var st statusBody
	if err := json.Unmarshal(body, &st); err != nil {
		return time.Time{}, res, fmt.Errorf("submit response: %w", err)
	}
	for {
		if err := sleepCtx(ctx, period); err != nil {
			return time.Time{}, res, err
		}
		code, _, body, err := c.do(ctx, "GET", "/v1/fleets/"+st.ID, nil, nil)
		done := time.Now()
		if err != nil || code != http.StatusOK {
			return time.Time{}, res, fmt.Errorf("status: %d: %v", code, err)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return time.Time{}, res, fmt.Errorf("status response: %w", err)
		}
		switch st.Status {
		case "done":
			code, _, body, err := c.do(ctx, "GET", "/v1/fleets/"+st.ID+"/results", nil, nil)
			if err != nil || code != http.StatusOK {
				return time.Time{}, res, fmt.Errorf("results: %d: %v", code, err)
			}
			return done, res, json.Unmarshal(body, &res)
		case "queued", "running":
		default:
			return time.Time{}, res, fmt.Errorf("job %s ended %s", st.ID, st.Status)
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// scrape reads the named counters and gauges from /metrics.
func (c *apiClient) scrape(ctx context.Context) (map[string]float64, error) {
	code, _, body, err := c.do(ctx, "GET", "/metrics", nil, nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("metrics: %d: %v", code, err)
	}
	return parseMetrics(body), nil
}

func parseMetrics(body []byte) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
			m[name] = v
		}
	}
	return m
}

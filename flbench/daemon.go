package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one flcluster process under test.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	exited   chan error
	stopOnce sync.Once
}

// startDaemon launches flcluster with its default flags apart from the
// listen address and log level, plus extra, and waits until it answers.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr, "-log-level", "warn"}, extra...)
	cmd := exec.Command(bin, args...)
	// Our stdout carries the result line: drop the daemon's banner, keep
	// its warnings.
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	if err := d.waitReady(20 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) waitReady(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("flcluster exited before it was ready: %v", err)
		default:
		}
		if resp, err := hc.Get(d.base + "/v1/version"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("flcluster not ready after %v", limit)
}

// stop sends SIGTERM (the daemon flushes its span exporter on the way out)
// and waits for the process to end, killing it after ten seconds. Calls
// after the first return at once.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
	})
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// version returns the daemon's build line from GET /v1/version.
func (d *daemon) version() string {
	var v map[string]any
	if err := d.getJSON("/v1/version", &v); err != nil {
		return "unknown"
	}
	return fmt.Sprint(v["go_version"])
}

type histJSON struct {
	Sum   int64 `json:"sum"`
	Count int64 `json:"count"`
}

// statsJSON is the part of GET /v1/stats the benchmark reads.
type statsJSON struct {
	Aggregate struct {
		Hits         int64   `json:"cache_hits"`
		Misses       int64   `json:"cache_misses"`
		WarmStarts   int64   `json:"warm_starts"`
		ColdSolves   int64   `json:"cold_solves"`
		Deduped      int64   `json:"deduped"`
		SolveP50     float64 `json:"solve_p50_seconds"`
		QueueWaitP50 float64 `json:"queue_wait_p50_seconds"`
		QueueWaitP99 float64 `json:"queue_wait_p99_seconds"`
		CacheEntries int64   `json:"cache_entries"`
		WarmEntries  int64   `json:"warm_entries"`
		Convergence  struct {
			Newton            map[string]histJSON `json:"newton_iterations"`
			Outer             histJSON            `json:"outer_iterations"`
			DualSeed          map[string]int64    `json:"dual_seed"`
			BracketSeeded     int64               `json:"bracket_seeded"`
			BracketDiscovered int64               `json:"bracket_discovered"`
		} `json:"convergence"`
	} `json:"aggregate"`
	Stream struct {
		DeltasCoalesced int64 `json:"deltas_coalesced"`
		SolveWarm       int64 `json:"solve_warm_starts"`
		SolveCold       int64 `json:"solve_cold_solves"`
	} `json:"stream"`
	// SpansDroppedTotal is obs_spans_dropped_total from GET /metrics.
	SpansDroppedTotal float64 `json:"-"`
	// CPU is the daemon's user + system time so far.
	CPU time.Duration `json:"-"`
}

// scrape reads /v1/stats, /metrics and the process CPU time.
func (d *daemon) scrape() (statsJSON, error) {
	var st statsJSON
	if err := d.getJSON("/v1/stats", &st); err != nil {
		return st, err
	}
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "obs_spans_dropped_total "); ok {
			st.SpansDroppedTotal, _ = strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("reading /metrics: %w", err)
	}
	st.CPU, err = procCPU(d.cmd.Process.Pid)
	return st, err
}

// procCPU reads utime + stime of a process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// hostSteal reads the steal and total ticks of all CPUs from /proc/stat.
// Steal is time the hypervisor gave this machine's virtual CPUs to other
// guests; a run with a large share of it measured a contended host.
func hostSteal() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
)

// result is the outcome of one operation.
type result struct {
	op     *op
	ans    *serve.SolveResponseJSON // nil when the operation failed
	status string                   // failure class: HTTP status or "delta"
	lat    time.Duration
	// Client span of the traced run: trace ID and wall-clock bounds.
	traceID    string
	start, end time.Time
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	id     int
	base   string
	hc     *http.Client
	traced bool
	n      int
}

func newClient(id int, base string, traced bool) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{id: id, base: base, traced: traced, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one operation and decodes its answer. The latency runs from
// the send to the fully decoded answer.
func (c *client) do(o *op) result {
	path := "/v1/solve"
	switch o.kind {
	case opOpen:
		path = "/v1/stream"
	case opDelta:
		path = "/v1/stream/" + o.dev.session + "/deltas"
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(o.body))
	if err != nil {
		return result{op: o, status: "request: " + err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	r := result{op: o}
	if c.traced {
		c.n++
		r.traceID = fmt.Sprintf("fb-%d-%d", c.id, c.n)
		req.Header.Set(obs.TraceHeader, r.traceID)
	}
	r.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		r.status = "transport"
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		r.status = "transport"
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.status = strconv.Itoa(resp.StatusCode)
		return r
	}
	var ans serve.SolveResponseJSON
	switch o.kind {
	case opOpen:
		var out stream.OpenResponseJSON
		err = json.Unmarshal(body, &out)
		ans, o.dev.session = out.Result, out.SessionID
	case opDelta:
		var up stream.UpdateJSON
		line, _, _ := bufio.NewReader(bytes.NewReader(body)).ReadLine()
		if err = json.Unmarshal(line, &up); err == nil && (!up.OK || up.Result == nil) {
			r.status = "delta"
			return r
		}
		if up.Result != nil {
			ans = *up.Result
		}
	default:
		err = json.Unmarshal(body, &ans)
	}
	r.end = time.Now()
	if err != nil {
		r.status = "decode"
		return r
	}
	r.lat = r.end.Sub(r.start)
	r.ans = &ans
	if o.kind == opDelta {
		// The stream layer starts its own trace per delta; the answer
		// names it.
		r.traceID = ans.TraceID
	}
	return r
}

// runSetup sends every client's set-up operations, the clients in
// parallel, and returns the results in client order.
func runSetup(w *workload, base string) [][]result {
	out := make([][]result, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(c, base, false)
			defer cl.close()
			ops := w.setup(c)
			for i := range ops {
				out[c] = append(out[c], cl.do(&ops[i]))
			}
		}(c)
	}
	wg.Wait()
	return out
}

// timedPhase is the closed loop: each client runs whole rounds of its own
// operations until the run has lasted `dur`, every client has finished the
// workload's quality rounds, at least minOps operations succeeded and
// w.rssOps have completed. The client that completes operation w.rssOps
// calls atRSS before its next send.
type timedPhase struct {
	results [][]result
	wall    time.Duration
}

// minOps keeps at least ten samples beyond the p90 in every run.
const minOps = 100

func runTimed(w *workload, base string, dur time.Duration, traced bool, atRSS func()) timedPhase {
	out := make([][]result, w.clients)
	var ok, done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(c, base, traced)
			defer cl.close()
			for r := 0; r < w.minRounds || time.Since(start) < dur || ok.Load() < minOps || done.Load() < int64(w.rssOps); r++ {
				ops := w.round(c, r)
				for i := range ops {
					res := cl.do(&ops[i])
					if res.ans != nil {
						ok.Add(1)
					}
					if done.Add(1) == int64(w.rssOps) {
						atRSS()
					}
					out[c] = append(out[c], res)
				}
			}
		}(c)
	}
	wg.Wait()
	return timedPhase{results: out, wall: time.Since(start)}
}

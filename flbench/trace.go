package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/serve"
)

// spanSink is the traced run's span collector: the daemon exports to it
// with -span-export, and it keeps every trace in memory by trace ID. It
// decodes the program's telemetry.Batch wire form itself rather than going
// through telemetry.Aggregator, because the aggregator re-anchors each hop
// by its apparent clock skew (transit included) and evicts old traces;
// here both processes share one clock and every trace is needed.
type spanSink struct {
	mu     sync.Mutex
	traces map[string][]obs.TraceJSON
	srv    *http.Server
	url    string
	done   chan struct{}
}

func startSink() (*spanSink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("span sink: %w", err)
	}
	s := &spanSink{traces: map[string][]obs.TraceJSON{}, url: "http://" + ln.Addr().String() + obs.SpansPath, done: make(chan struct{})}
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b telemetry.Batch
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		for _, t := range b.Traces {
			s.traces[t.TraceID] = append(s.traces[t.TraceID], t)
		}
		s.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *spanSink) close() {
	_ = s.srv.Close()
	<-s.done
}

// interval is one span on the wall clock, in nanoseconds.
type interval struct {
	phase      string
	start, end int64
	rank       int
	// filled while nesting
	self    int64
	covered int64 // end of the children seen so far
}

// depth orders spans that share their bounds: the outer one first.
var depth = map[string]int{
	"client": 0, obs.PhaseTotal: 1, obs.PhaseDeltaApply: 2, obs.PhaseCoalesceWait: 2, obs.PhaseRoute: 3,
	obs.PhaseFingerprint: 4, obs.PhaseCacheLookup: 4, obs.PhaseQueueWait: 4, obs.PhaseDedupWait: 4, obs.PhaseSolve: 4,
	obs.PhaseSP1: 5, obs.PhaseSP2: 5,
}

// layerName maps a span phase to the layer it measures.
func layerName(phase string) string {
	if phase == obs.PhaseTotal {
		return "http" // the daemon's handler outside the deeper spans
	}
	return phase
}

// selfTimes splits one operation's client span into layer self times: each
// span's duration minus the part its child spans cover. Children are the
// spans nested inside it on the shared wall clock. The program records SP1
// and SP2 from the solve's start; they run one after the other, so SP2 is
// laid out after SP1. The self times add up to the client span exactly.
func selfTimes(r result, traces []obs.TraceJSON) (map[string]int64, int) {
	ivs := []*interval{{phase: "client", start: r.start.UnixNano(), end: r.end.UnixNano()}}
	n := 0
	for _, t := range traces {
		base := t.Start.UnixNano()
		var sp1 *interval
		for _, s := range t.Spans {
			if s.DurUS <= 0 || s.Phase == obs.PhaseError {
				continue
			}
			n++
			rank, known := depth[s.Phase]
			if !known {
				rank = 6 // innermost
			}
			iv := &interval{phase: s.Phase, start: base + s.StartUS*1e3, end: base + (s.StartUS+s.DurUS)*1e3, rank: rank}
			if s.Phase == obs.PhaseSP1 {
				sp1 = iv
			}
			ivs = append(ivs, iv)
		}
		for _, iv := range ivs {
			if iv.phase == obs.PhaseSP2 && sp1 != nil && iv.start == sp1.start {
				iv.start, iv.end = sp1.end, sp1.end+(iv.end-iv.start)
			}
		}
	}
	root := ivs[0]
	root.self, root.covered = root.end-root.start, root.start
	sort.SliceStable(ivs[1:], func(i, j int) bool {
		a, b := ivs[1+i], ivs[1+j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.end > b.end
	})
	// Spans carry microseconds; allow that much slack when nesting.
	const slack = 1000
	stack := []*interval{root}
	for _, iv := range ivs[1:] {
		for len(stack) > 1 {
			top := stack[len(stack)-1]
			if iv.start >= top.start-slack && iv.end <= top.end+slack && iv.start < top.end {
				break
			}
			stack = stack[:len(stack)-1]
		}
		parent := stack[len(stack)-1]
		iv.start, iv.end = max(iv.start, parent.start), min(iv.end, parent.end)
		if iv.end < iv.start {
			iv.end = iv.start
		}
		iv.self = iv.end - iv.start
		iv.covered = iv.start
		if c := iv.end - max(iv.start, parent.covered); c > 0 {
			parent.self -= c
		}
		parent.covered = max(parent.covered, iv.end)
		stack = append(stack, iv)
	}
	out := map[string]int64{}
	for _, iv := range ivs {
		out[layerName(iv.phase)] += iv.self
	}
	return out, n
}

// layerReport is the traced run's split of client latency into layers.
type layerReport struct {
	joined, unjoined int
	spans            int
	// mean self time per operation, by layer, over all joined operations
	mean map[string]float64
	// mean self time per operation over the operations whose latency lies
	// between the 48th and 52nd percentile: the budget of a median request
	budget map[string]float64
	// mean self time per operation that has the layer at all
	perHit map[string]float64
	// mean span duration of sp1/sp2 per solve, in milliseconds
	perSolve map[string]float64
	lat50    float64
}

func analyzeTrace(timed [][]result, sink *spanSink, outPath string) (layerReport, error) {
	sink.mu.Lock()
	defer sink.mu.Unlock()
	rep := layerReport{mean: map[string]float64{}, budget: map[string]float64{}, perHit: map[string]float64{}, perSolve: map[string]float64{}}
	type joined struct {
		lat  int64
		self map[string]int64
	}
	var all []joined
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return rep, err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return rep, err
	}
	defer f.Close()
	buf := bufio.NewWriter(f)
	enc := json.NewEncoder(buf)
	sums := map[string]int64{}
	counts := map[string]int{}
	for _, rs := range timed {
		for _, r := range rs {
			if r.ans == nil {
				continue
			}
			traces := sink.traces[r.traceID]
			if len(traces) == 0 {
				rep.unjoined++
				continue
			}
			self, n := selfTimes(r, traces)
			rep.joined++
			rep.spans += n
			all = append(all, joined{lat: r.end.Sub(r.start).Nanoseconds(), self: self})
			for _, t := range traces {
				for _, s := range t.Spans {
					if s.Phase == obs.PhaseSP1 || s.Phase == obs.PhaseSP2 {
						sums[s.Phase] += s.DurUS
						counts[s.Phase]++
					}
				}
			}
			if err := enc.Encode(map[string]any{"trace_id": r.traceID, "client_start": r.start, "client_end": r.end, "server": traces}); err != nil {
				return rep, err
			}
		}
	}
	if err := buf.Flush(); err != nil {
		return rep, err
	}
	if err := f.Close(); err != nil {
		return rep, err
	}
	if len(all) == 0 {
		return rep, nil
	}
	present := map[string]int{}
	for _, j := range all {
		for k, v := range j.self {
			rep.mean[k] += float64(v) / 1e3 / float64(len(all))
			rep.perHit[k] += float64(v) / 1e3
			present[k]++
		}
	}
	for k, n := range present {
		rep.perHit[k] /= float64(n)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lat < all[j].lat })
	rep.lat50 = float64(all[len(all)/2].lat) / 1e6
	lo, hi := len(all)*48/100, len(all)*52/100+1
	band := all[lo:min(hi, len(all))]
	for _, j := range band {
		for k, v := range j.self {
			rep.budget[k] += float64(v) / 1e3 / float64(len(band))
		}
	}
	for k, v := range sums {
		rep.perSolve[k] = float64(v) / 1e3 / float64(counts[k])
	}
	return rep, nil
}

// microbench times the serving layers the daemon's spans do not split —
// request decode, fingerprint, cache get and response encode — by calling
// their public functions in process on this run's own requests and answers.
func microbench(timed [][]result) map[string]float64 {
	var bodies [][]byte
	var answers []*serve.SolveResponseJSON
	for _, rs := range timed {
		for _, r := range rs {
			if r.ans != nil && r.op.kind != opDelta && len(bodies) < 256 {
				bodies = append(bodies, r.op.body)
				answers = append(answers, r.ans)
			}
		}
	}
	out := map[string]float64{"decode_us": 0, "fingerprint_us": 0, "cache_get_us": 0, "encode_us": 0}
	if len(bodies) == 0 {
		return out
	}
	q := serve.Quantization{GainResolutionDB: 0.25}
	reqs := make([]serve.Request, len(bodies))
	fps := make([]serve.Fingerprint, len(bodies))
	resps := make([]serve.Response, len(bodies))
	cache := serve.NewCache(4096, 10*time.Minute)
	for i, b := range bodies {
		var in serve.SolveRequestJSON
		if err := json.Unmarshal(b, &in); err != nil {
			return out
		}
		req, err := serve.RequestFromJSON(in)
		if err != nil {
			return out
		}
		reqs[i] = req
		fps[i] = serve.FingerprintRequest(req, q)
		a := answers[i]
		resps[i] = serve.Response{
			Result: core.Result{
				Allocation: fl.Allocation{Power: a.PowerW, Bandwidth: a.BandwidthHz, Freq: a.FreqHz},
				Metrics: fl.Metrics{RoundTime: a.RoundTimeS, TotalTime: a.TotalTimeS, TotalEnergy: a.TotalEnergyJ,
					TransEnergy: a.TransEnergyJ, CompEnergy: a.CompEnergyJ},
				Objective: a.Objective,
				Converged: a.Converged,
			},
			Source:      serve.Source(a.Source),
			Solver:      serve.SolverName(a.Solver),
			Fingerprint: fps[i],
		}
		cache.Put(fps[i].Exact, resps[i].Result)
	}
	sink := 0
	out["decode_us"] = perOp(len(bodies), func(i int) {
		var in serve.SolveRequestJSON
		if json.Unmarshal(bodies[i], &in) == nil {
			if req, err := serve.RequestFromJSON(in); err == nil {
				sink += req.System.N()
			}
		}
	})
	out["fingerprint_us"] = perOp(len(bodies), func(i int) {
		sink += int(serve.FingerprintRequest(reqs[i], q).Exact & 1)
	})
	out["cache_get_us"] = perOp(len(bodies), func(i int) {
		if _, ok := cache.Get(fps[i].Exact); ok {
			sink++
		}
	})
	out["encode_us"] = perOp(len(bodies), func(i int) {
		_ = json.NewEncoder(io.Discard).Encode(cluster.SolveResponseJSON{SolveResponseJSON: serve.ResponseToJSON(resps[i])})
	})
	_ = sink
	return out
}

// perOp returns the median over passes of the mean time of fn per input,
// in microseconds; passes repeat for at least 100 ms.
func perOp(n int, fn func(i int)) float64 {
	var passes []float64
	for began := time.Now(); time.Since(began) < 100*time.Millisecond || len(passes) < 5; {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/1e3/float64(n))
	}
	sort.Float64s(passes)
	return passes[len(passes)/2]
}

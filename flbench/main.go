// Command flbench is the repository's end-to-end benchmark of the
// allocation service. It starts the real flcluster daemon, drives one
// workload through it as a closed loop of nproc clients, checks every
// answer against its own implementation of the paper's model, and prints
// the metrics named in BENCHMARK.json. See README.md.
//
// Usage (run.sh builds both binaries first):
//
//	flbench -daemon BIN -workload NAME -seed N -seconds S -trace 0|1
//	flbench -daemon BIN -steady RUNS [-seconds S]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run launches the daemon and performs
// the workload's set-up; setup_s is the median.
const setupRepeats = 5

func main() {
	var (
		name      = flag.String("workload", "", "workload: cold-weighted, deadline or device-drift")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Int("seconds", 30, "length of the timed phase in seconds")
		trace     = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		daemonBin = flag.String("daemon", "", "path of the built flcluster binary")
		outDir    = flag.String("out", ".bench_build", "directory for the traced run's span files")
		steady    = flag.Int("steady", 0, "steadiness mode: run every workload this many times and print the spread")
	)
	flag.Parse()
	if *daemonBin == "" {
		fatal(fmt.Errorf("-daemon is required"))
	}
	if *steady > 0 {
		if err := runSteady(*daemonBin, *outDir, workloadNames, *steady, *seconds, *trace); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	out, err := run(*daemonBin, *outDir, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flbench:", err)
	os.Exit(2)
}

var workloadNames = []string{"cold-weighted", "deadline", "device-drift"}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one daemon lifetime: its set-ups, timed loop and scrapes.
type phase struct {
	setupS        []float64
	setup         [][]result
	timed         timedPhase
	before, after statsJSON
	peakRSS       float64
	clientCPU     time.Duration
	stealShare    float64 // host steal time during the timed phase
	version       string
	verdict       verdict
}

// runPhase launches the daemon `repeats` times, performing the set-up each
// time, and runs the timed loop on the last launch.
func runPhase(bin string, w *workload, dur time.Duration, repeats int, sink *spanSink) (*phase, error) {
	var extra []string
	if sink != nil {
		extra = []string{"-trace-sample", "1", "-span-export", sink.url}
	}
	p := &phase{}
	var d *daemon
	for i := 0; i < repeats; i++ {
		began := time.Now()
		var err error
		if d, err = startDaemon(bin, extra...); err != nil {
			return nil, err
		}
		p.setup = runSetup(w, d.base)
		p.setupS = append(p.setupS, time.Since(began).Seconds())
		if i < repeats-1 {
			d.stop()
		}
	}
	defer d.stop()
	p.version = d.version()
	var err error
	if p.before, err = d.scrape(); err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	steal0, total0 := hostSteal()
	var rssErr error
	p.timed = runTimed(w, d.base, dur, sink != nil, func() { p.peakRSS, rssErr = d.peakRSSMB() })
	p.clientCPU = selfCPU() - cpu0
	if steal1, total1 := hostSteal(); total1 > total0 {
		p.stealShare = (steal1 - steal0) / (total1 - total0)
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if p.after, err = d.scrape(); err != nil {
		return nil, err
	}
	d.stop() // flushes the span exporter before the sink is read
	p.verdict = verify(p.setup, p.timed.results)
	return p, nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// latencies returns the sorted latencies of the successful operations, in
// milliseconds.
func latencies(t timedPhase) []float64 {
	var out []float64
	for _, rs := range t.results {
		for _, r := range rs {
			if r.ans != nil {
				out = append(out, float64(r.lat.Nanoseconds())/1e6)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	x := q * float64(len(sorted)-1)
	i := int(x)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (x-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func run(bin, outDir, name string, seed int64, dur time.Duration, traced bool) (output, error) {
	clients := runtime.NumCPU()
	w, err := newWorkload(name, seed, clients)
	if err != nil {
		return output{}, err
	}
	repeats := setupRepeats
	if traced {
		repeats = 1 // the traced variant reports no set-up time
	}
	plain, err := runPhase(bin, w, dur, repeats, nil)
	if err != nil {
		return output{}, err
	}
	printHost(plain.version, clients)
	fmt.Printf("host: steal time %.1f%% of CPU time during the timed phase\n", 100*plain.stealShare)
	v := plain.verdict
	lat := latencies(plain.timed)
	ok := len(lat)
	e2e := map[string]metric{
		"setup_s":       {median(plain.setupS), "s"},
		"ops_s":         {float64(ok) / plain.timed.wall.Seconds(), "1/s"},
		"lat_p50_ms":    {quantile(lat, 0.5), "ms"},
		"lat_p90_ms":    {quantile(lat, 0.9), "ms"},
		"peak_rss_mb":   {plain.peakRSS, "MB"},
		"objective_sum": {v.objectiveSum, "objective"},
	}
	fmt.Printf("workload %s seed %d: %d attempted, %d failed, %d successful latency samples\n", name, seed, v.attempted, v.failed, ok)
	printMetrics(e2e)
	fmt.Printf("  %-24s %.4f ms (unbounded)\n  %-24s %.4f ms (unbounded)\n", "lat_p99_ms", quantile(lat, 0.99), "lat_p999_ms", quantile(lat, 0.999))
	printVerdict(v)
	out := output{Correct: v.violations == 0, Attempted: v.attempted, Failed: v.failed, Metrics: e2e}
	if !traced {
		return out, nil
	}

	// The traced variant: a fresh workload with the same seed, so the
	// traced loop sends the same operations.
	w, _ = newWorkload(name, seed, clients)
	sink, err := startSink()
	if err != nil {
		return output{}, err
	}
	tp, err := runPhase(bin, w, dur, 1, sink)
	sink.close()
	if err != nil {
		return output{}, err
	}
	spanFile := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.ndjson", name, seed))
	rep, err := analyzeTrace(tp.timed.results, sink, spanFile)
	if err != nil {
		return output{}, err
	}
	tv := tp.verdict
	layers := perLayer(tp, rep, quantile(latencies(tp.timed), 0.5)-quantile(lat, 0.5))
	for k, v := range microbench(tp.timed.results) {
		layers[k] = metric{v, "us/op"}
	}
	fmt.Printf("traced run: %d attempted, %d failed, %d operations joined to daemon spans, %d not; spans in %s\n",
		tv.attempted, tv.failed, rep.joined, rep.unjoined, spanFile)
	printBudget(rep)
	fmt.Printf("  dual-seed outcomes (daemon totals): %v\n", tp.after.Aggregate.Convergence.DualSeed)
	printMetrics(layers)
	printVerdict(tv)
	return output{Correct: v.violations == 0 && tv.violations == 0, Attempted: tv.attempted, Failed: tv.failed, Metrics: layers}, nil
}

// budgetLayers are the layers a request's latency splits into, outermost
// first: the client side (network, HTTP stacks, JSON), the daemon's HTTP
// handler outside its spans, and the spans the program records.
var budgetLayers = []string{"client", "http", "delta_apply", "coalesce_wait", "route", "fingerprint", "cache_lookup", "queue_wait", "dedup_wait", "solve", "sp1", "sp2"}

func perLayer(p *phase, rep layerReport, overheadMS float64) map[string]metric {
	b, a := p.before.Aggregate, p.after.Aggregate
	ops := float64(p.verdict.attempted)
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	hits, misses := float64(a.Hits-b.Hits), float64(a.Misses-b.Misses)
	outcomes := 0.0
	for k, n := range a.Convergence.DualSeed {
		if k != "none" {
			outcomes += float64(n - b.Convergence.DualSeed[k])
		}
	}
	// A projected certificate is accepted after clamping; both skip Newton.
	var accepted float64
	for _, k := range []string{"accepted", "projected"} {
		accepted += float64(a.Convergence.DualSeed[k] - b.Convergence.DualSeed[k])
	}
	var newton, solves float64
	for k, h := range a.Convergence.Newton {
		newton += float64(h.Sum - b.Convergence.Newton[k].Sum)
		solves += float64(h.Count - b.Convergence.Newton[k].Count)
	}
	sa, sb := p.after.Stream, p.before.Stream
	m := map[string]metric{
		"cache_hits":             {hits, "count"},
		"cache_misses":           {misses, "count"},
		"cache_hit_ratio":        {ratio(hits, hits+misses), "ratio"},
		"cache_gap_max":          {p.verdict.cacheGapMax, "relative"},
		"warm_starts":            {float64(a.WarmStarts - b.WarmStarts), "count"},
		"cold_solves":            {float64(a.ColdSolves - b.ColdSolves), "count"},
		"dual_seed_accepted":     {accepted, "count"},
		"dual_seed_accept_ratio": {ratio(accepted, outcomes), "ratio"},
		"queue_wait_p50_ms":      {a.QueueWaitP50 * 1e3, "ms"},
		"queue_wait_p99_ms":      {a.QueueWaitP99 * 1e3, "ms"},
		"deduped":                {float64(a.Deduped - b.Deduped), "count"},
		"solve_p50_ms":           {a.SolveP50 * 1e3, "ms"},
		"route_us":               {rep.perHit["route"], "us/op"},
		"delta_apply_us":         {rep.perHit["delta_apply"], "us/op"},
		"stream_resolves":        {float64(sa.SolveWarm + sa.SolveCold - sb.SolveWarm - sb.SolveCold), "count"},
		"deltas_coalesced":       {float64(sa.DeltasCoalesced - sb.DeltasCoalesced), "count"},
		"sp1_ms":                 {rep.perSolve["sp1"], "ms/solve"},
		"sp2_ms":                 {rep.perSolve["sp2"], "ms/solve"},
		"newton_iters":           {ratio(newton, solves), "count/solve"},
		"outer_iters":            {ratio(float64(a.Convergence.Outer.Sum-b.Convergence.Outer.Sum), float64(a.Convergence.Outer.Count-b.Convergence.Outer.Count)), "count/solve"},
		"bracket_seeded":         {float64(a.Convergence.BracketSeeded - b.Convergence.BracketSeeded), "count"},
		"bracket_discovered":     {float64(a.Convergence.BracketDiscovered - b.Convergence.BracketDiscovered), "count"},
		"spans_per_op":           {ratio(float64(rep.spans), float64(rep.joined)), "count/op"},
		"spans_dropped":          {p.after.SpansDroppedTotal - p.before.SpansDroppedTotal, "count"},
		"trace_overhead_us":      {overheadMS * 1e3, "us"},
		"server_cpu_ms_per_op":   {ratio(float64((p.after.CPU-p.before.CPU).Microseconds())/1e3, ops), "ms/op"},
		"client_cpu_ms_per_op":   {ratio(float64(p.clientCPU.Microseconds())/1e3, ops), "ms/op"},
		"cache_entries":          {float64(a.CacheEntries), "count"},
		"warm_entries":           {float64(a.WarmEntries), "count"},
	}
	sum := 0.0
	for _, l := range budgetLayers {
		m["budget_"+l+"_us"] = metric{rep.budget[l], "us/op"}
		sum += rep.budget[l]
	}
	m["budget_gap"] = metric{math.Abs(ratio(sum/1e3, rep.lat50) - 1), "ratio"}
	return m
}

func printHost(daemonGo string, clients int) {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("host: go %s (daemon %s), GOMAXPROCS %d, nproc %d, clients %d, cpu %q\n",
		runtime.Version(), daemonGo, runtime.GOMAXPROCS(0), runtime.NumCPU(), clients, model)
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-24s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func printVerdict(v verdict) {
	classes := make([]string, 0, len(v.failures))
	for k := range v.failures {
		classes = append(classes, k)
	}
	sort.Strings(classes)
	for _, k := range classes {
		fmt.Printf("  failed %-18s %d\n", k, v.failures[k])
	}
	if v.scheme1Checked > 0 {
		fmt.Printf("  scheme 1: worst energy ratio %.4f over %d deadline answers\n", v.scheme1Worst, v.scheme1Checked)
	}
	fmt.Printf("  check violations: %d\n", v.violations)
	for _, e := range v.examples {
		fmt.Printf("    %s\n", e)
	}
}

func printBudget(rep layerReport) {
	fmt.Printf("  layer budget of a median operation (48th–52nd percentile band), traced p50 %.4f ms:\n", rep.lat50)
	sum := 0.0
	for _, l := range budgetLayers {
		if v := rep.budget[l]; v > 0 {
			fmt.Printf("    %-14s %10.1f us   (mean over all ops %10.1f us)\n", l, v, rep.mean[l])
			sum += v
		}
	}
	fmt.Printf("    %-14s %10.1f us\n", "sum", sum)
}

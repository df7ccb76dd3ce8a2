package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/obs"
	"repro/internal/serve"
)

// solved returns a real answer of the program's solver for a seeded
// 10-device instance, in wire form.
func solved(t *testing.T, mode string) (*serve.SolveRequestJSON, *serve.SolveResponseJSON) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var req *serve.SolveRequestJSON
	opts := core.Options{Mode: core.ModeWeighted}
	if mode == "deadline" {
		req = deadlineReq(rng, 10, 120, "")
		opts = core.Options{Mode: core.ModeDeadline, TotalDeadline: req.TotalDeadlineS}
	} else {
		req = weighted(draw(rng, 10, 0), 2, "")
	}
	sys, err := serve.SystemFromJSON(req.System)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(sys, fl.Weights{W1: req.Weights.W1, W2: req.Weights.W2}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ans := serve.ResponseToJSON(serve.Response{Result: res})
	return req, &ans
}

func clone(a *serve.SolveResponseJSON) *serve.SolveResponseJSON {
	c := *a
	c.PowerW = append([]float64(nil), a.PowerW...)
	c.BandwidthHz = append([]float64(nil), a.BandwidthHz...)
	c.FreqHz = append([]float64(nil), a.FreqHz...)
	return &c
}

// restate rewrites every reported quantity to match the allocation, so a
// corruption of the allocation alone trips only the check aimed at it.
func restate(req *serve.SolveRequestJSON, a *serve.SolveResponseJSON) {
	e := evaluate(&req.System, a.PowerW, a.BandwidthHz, a.FreqHz)
	a.RoundTimeS, a.TotalTimeS, a.TransEnergyJ, a.CompEnergyJ, a.TotalEnergyJ = e.Round, e.Total, e.Trans, e.Comp, e.Energy
	a.Objective = objective(req, e)
}

func TestCheckerAcceptsRealAnswers(t *testing.T) {
	for _, mode := range []string{"weighted", "deadline"} {
		req, ans := solved(t, mode)
		if err := checkAnswer(req, ans); err != nil {
			t.Errorf("%s: real answer rejected: %v", mode, err)
		}
		if err := sameAnswer(ans, clone(ans)); err != nil {
			t.Errorf("%s: identical replay rejected: %v", mode, err)
		}
	}
}

func TestCheckerRejectsCorruptedAnswers(t *testing.T) {
	wreq, wans := solved(t, "weighted")
	dreq, dans := solved(t, "deadline")
	cases := []struct {
		name    string
		req     *serve.SolveRequestJSON
		corrupt func(a *serve.SolveResponseJSON)
		want    string
	}{
		{"bandwidth over budget", wreq, func(a *serve.SolveResponseJSON) {
			for i := range a.BandwidthHz {
				a.BandwidthHz[i] *= 1.001
			}
			restate(wreq, a)
		}, "exceeds budget"},
		{"misreported energy", wreq, func(a *serve.SolveResponseJSON) {
			a.TotalEnergyJ *= 1 + 1e-7
		}, "total_energy_j"},
		{"missed deadline", dreq, func(a *serve.SolveResponseJSON) {
			for i := range a.FreqHz {
				a.FreqHz[i] *= 0.8
			}
			restate(dreq, a)
		}, "misses deadline"},
		{"objective above the start allocation", wreq, func(a *serve.SolveResponseJSON) {
			for i, d := range wreq.System.Devices {
				a.PowerW[i], a.FreqHz[i] = d.PMinW*1.0001, d.FMinHz*1.0001
			}
			restate(wreq, a)
		}, "above the start allocation"},
	}
	for _, tc := range cases {
		ans := wans
		if tc.req == dreq {
			ans = dans
		}
		bad := clone(ans)
		tc.corrupt(bad)
		err := checkAnswer(tc.req, bad)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	replay := clone(wans)
	replay.PowerW[0] = math.Float64frombits(math.Float64bits(replay.PowerW[0]) ^ 1)
	if err := sameAnswer(wans, replay); err == nil {
		t.Error("a replay that differs in the last bit of one power was accepted")
	}
}

func TestSelfTimesAddUp(t *testing.T) {
	// Client 0–1000 µs, daemon total 100–900, route 200–800 containing a
	// solve 300–700 whose SP1 (50 µs) and SP2 (300 µs) both start at the
	// solve's start.
	t0 := time.Unix(1_700_000_000, 0)
	r := result{start: t0, end: t0.Add(1000 * time.Microsecond)}
	self, n := selfTimes(r, []obs.TraceJSON{{Start: t0, Spans: []obs.Span{
		{Phase: obs.PhaseRoute, StartUS: 200, DurUS: 600},
		{Phase: obs.PhaseSolve, StartUS: 300, DurUS: 400},
		{Phase: obs.PhaseSP1, StartUS: 300, DurUS: 50},
		{Phase: obs.PhaseSP2, StartUS: 300, DurUS: 300},
		{Phase: obs.PhaseTotal, StartUS: 100, DurUS: 800},
	}}})
	want := map[string]int64{"client": 200e3, "http": 200e3, "route": 200e3, "solve": 50e3, "sp1": 50e3, "sp2": 300e3}
	var sum int64
	for k, v := range self {
		sum += v
		if want[k] != v {
			t.Errorf("self[%s] = %d ns, want %d", k, v, want[k])
		}
	}
	if sum != 1000e3 || n != 5 {
		t.Errorf("self times sum to %d ns over %d spans, want 1000000 over 5", sum, n)
	}
}

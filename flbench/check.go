package main

import (
	"fmt"
	"math"

	"repro/internal/fl"
	"repro/internal/serve"
)

// The checker recomputes every answer from its wire form with this file's
// own implementation of the paper's model, eqs. (1)–(7). It shares no code
// with the daemon beyond the JSON schema.
const (
	// feasTol is the relative slack the program itself allows on the
	// power, frequency and bandwidth boxes (fl.Validate's 1e-6).
	feasTol = 1e-6
	// reportTol bounds the relative gap between a reported quantity and
	// its recomputation from the returned allocation.
	reportTol = 1e-9
)

// evaluation is the paper's accounting of one allocation.
type evaluation struct {
	Round, Total, Trans, Comp, Energy float64
}

// evaluate applies eqs. (1)–(7): Shannon rate, upload and compute time per
// round, transmission and computation energy, summed over R_g rounds.
func evaluate(sys *serve.SystemJSON, p, b, f []float64) evaluation {
	var e evaluation
	for i, d := range sys.Devices {
		rate := b[i] * math.Log1p(p[i]*d.Gain/(sys.N0WPerHz*b[i])) / math.Ln2
		up := d.UploadBits / rate
		cycles := sys.LocalIters * d.CyclesPerSample * d.Samples
		if t := up + cycles/f[i]; t > e.Round {
			e.Round = t
		}
		e.Trans += p[i] * up
		e.Comp += sys.Kappa * cycles * f[i] * f[i]
	}
	e.Trans *= sys.GlobalRounds
	e.Comp *= sys.GlobalRounds
	e.Energy = e.Trans + e.Comp
	e.Total = sys.GlobalRounds * e.Round
	return e
}

// objective is w1·E + w2·T; in deadline mode the weights are (1, 0), so it
// is the energy in joules.
func objective(req *serve.SolveRequestJSON, e evaluation) float64 {
	return req.Weights.W1*e.Energy + req.Weights.W2*e.Total
}

// startObjective scores Algorithm 2's starting point p_max, f_max, B/N.
func startObjective(req *serve.SolveRequestJSON) float64 {
	sys := &req.System
	n := len(sys.Devices)
	p, b, f := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, d := range sys.Devices {
		p[i], b[i], f[i] = d.PMaxW, sys.BandwidthHz/float64(n), d.FMaxHz
	}
	return objective(req, evaluate(sys, p, b, f))
}

func relGap(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Max(math.Abs(want), math.SmallestNonzeroFloat64)
}

// feasible checks constraints (8a)–(8c) within feasTol.
func feasible(sys *serve.SystemJSON, a *serve.SolveResponseJSON) error {
	n := len(sys.Devices)
	if len(a.PowerW) != n || len(a.BandwidthHz) != n || len(a.FreqHz) != n {
		return fmt.Errorf("allocation has %d/%d/%d entries for %d devices", len(a.PowerW), len(a.BandwidthHz), len(a.FreqHz), n)
	}
	sumB := 0.0
	for i, d := range sys.Devices {
		p, b, f := a.PowerW[i], a.BandwidthHz[i], a.FreqHz[i]
		switch {
		case !(p >= d.PMinW*(1-feasTol) && p <= d.PMaxW*(1+feasTol)):
			return fmt.Errorf("device %d power %g outside [%g, %g]", i, p, d.PMinW, d.PMaxW)
		case !(f >= d.FMinHz*(1-feasTol) && f <= d.FMaxHz*(1+feasTol)):
			return fmt.Errorf("device %d frequency %g outside [%g, %g]", i, f, d.FMinHz, d.FMaxHz)
		case !(b > 0) || math.IsInf(b, 0):
			return fmt.Errorf("device %d bandwidth %g not positive", i, b)
		}
		sumB += b
	}
	if sumB > sys.BandwidthHz*(1+feasTol) {
		return fmt.Errorf("bandwidth %g exceeds budget %g", sumB, sys.BandwidthHz)
	}
	return nil
}

// checkAnswer verifies one successful answer against the instance whose
// solve produced it: feasibility, every reported quantity against the
// recomputation, the deadline in deadline mode, and in weighted mode an
// objective no worse than the starting allocation's.
func checkAnswer(req *serve.SolveRequestJSON, a *serve.SolveResponseJSON) error {
	if err := feasible(&req.System, a); err != nil {
		return err
	}
	e := evaluate(&req.System, a.PowerW, a.BandwidthHz, a.FreqHz)
	for _, q := range []struct {
		name      string
		got, want float64
	}{
		{"round_time_s", a.RoundTimeS, e.Round},
		{"total_time_s", a.TotalTimeS, e.Total},
		{"trans_energy_j", a.TransEnergyJ, e.Trans},
		{"comp_energy_j", a.CompEnergyJ, e.Comp},
		{"total_energy_j", a.TotalEnergyJ, e.Energy},
		{"objective", a.Objective, objective(req, e)},
	} {
		if !(relGap(q.got, q.want) <= reportTol) {
			return fmt.Errorf("%s reported %.17g, recomputed %.17g", q.name, q.got, q.want)
		}
	}
	if req.Mode == "deadline" {
		if !(e.Total <= req.TotalDeadlineS*(1+feasTol)) {
			return fmt.Errorf("completion time %g misses deadline %g", e.Total, req.TotalDeadlineS)
		}
		return nil
	}
	if start := startObjective(req); !(a.Objective <= start*(1+reportTol)) {
		return fmt.Errorf("objective %g above the start allocation's %g", a.Objective, start)
	}
	return nil
}

// sameAnswer reports whether a replay returned the previous answer bit for
// bit: the allocation and every reported quantity.
func sameAnswer(prev, got *serve.SolveResponseJSON) error {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if !eq(prev.PowerW, got.PowerW) || !eq(prev.BandwidthHz, got.BandwidthHz) || !eq(prev.FreqHz, got.FreqHz) ||
		!eq([]float64{prev.RoundTimeS, prev.TotalTimeS, prev.TotalEnergyJ, prev.TransEnergyJ, prev.CompEnergyJ, prev.Objective},
			[]float64{got.RoundTimeS, got.TotalTimeS, got.TotalEnergyJ, got.TransEnergyJ, got.CompEnergyJ, got.Objective}) {
		return fmt.Errorf("replay answer differs from the previous answer (fingerprint %s vs %s)", got.FingerprintHx, prev.FingerprintHx)
	}
	return nil
}

// schemeRatio is the answer's energy over Scheme 1's on the same instance
// and deadline; the paper's Fig. 8 claim is that it never exceeds 1.
func schemeRatio(req *serve.SolveRequestJSON, a *serve.SolveResponseJSON, scheme1 fl.Allocation) float64 {
	mine := evaluate(&req.System, a.PowerW, a.BandwidthHz, a.FreqHz).Energy
	theirs := evaluate(&req.System, scheme1.Power, scheme1.Bandwidth, scheme1.Freq).Energy
	return mine / theirs
}

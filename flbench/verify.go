package main

import (
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/serve"
)

// verdict is what the checker found in one run.
type verdict struct {
	attempted, failed int
	failures          map[string]int // failed operations by class
	violations        int
	examples          []string
	objectiveSum      float64
	cacheGapMax       float64
	scheme1Worst      float64
	scheme1Checked    int
}

func (v *verdict) violate(format string, args ...any) {
	v.violations++
	if len(v.examples) < 5 {
		v.examples = append(v.examples, fmt.Sprintf(format, args...))
	}
}

type produced struct {
	req *serve.SolveRequestJSON
	ans *serve.SolveResponseJSON
}

// verify checks every answer of the final set-up and the timed phase.
// Set-up operations are checked but not counted as attempted.
func verify(setup, timed [][]result) verdict {
	v := verdict{failures: map[string]int{}}
	// First pass: every answer that came from a solve, by fingerprint, so
	// a cache answer can be traced to the instance whose solve produced it.
	producers := map[string][]produced{}
	for _, rs := range append(append([][]result{}, setup...), timed...) {
		for _, r := range rs {
			if r.ans != nil && r.ans.Source != string(serve.SourceCache) {
				producers[r.ans.FingerprintHx] = append(producers[r.ans.FingerprintHx], produced{r.op.req, r.ans})
			}
		}
	}
	var scheme1 []produced
	last := map[*device]*serve.SolveResponseJSON{}
	for phase, clients := range [][][]result{setup, timed} {
		for _, rs := range clients {
			for _, r := range rs {
				if phase == 1 {
					v.attempted++
				}
				if r.ans == nil {
					if phase == 0 {
						v.violate("set-up operation failed: %s", r.status)
						continue
					}
					v.failed++
					class := r.status
					if r.op.kind == opProbe {
						class = "probe " + class
					}
					v.failures[class]++
					continue
				}
				v.checkOne(r, producers, last)
				if r.op.quality {
					v.objectiveSum += r.ans.Objective
				}
				if r.op.scheme1 && phase == 1 {
					scheme1 = append(scheme1, produced{r.op.req, r.ans})
				}
			}
		}
	}
	v.checkScheme1(scheme1)
	return v
}

func (v *verdict) checkOne(r result, producers map[string][]produced, last map[*device]*serve.SolveResponseJSON) {
	ans, req := r.ans, r.op.req
	if r.op.kind == opReplay {
		if ans.Source != string(serve.SourceCache) {
			v.violate("replay of %s was not a cache hit (source %q)", r.op.dev.id, ans.Source)
		}
		if err := sameAnswer(last[r.op.dev], ans); err != nil {
			v.violate("%s: %v", r.op.dev.id, err)
		}
	}
	if r.op.dev != nil {
		last[r.op.dev] = ans
	}
	if ans.Source == string(serve.SourceCache) {
		var from *produced
		for i, p := range producers[ans.FingerprintHx] {
			if sameAnswer(p.ans, ans) == nil {
				from = &producers[ans.FingerprintHx][i]
				break
			}
		}
		if from == nil {
			v.violate("cache answer %s matches no answer a solve produced", ans.FingerprintHx)
			return
		}
		got := objective(req, evaluate(&req.System, ans.PowerW, ans.BandwidthHz, ans.FreqHz))
		v.cacheGapMax = math.Max(v.cacheGapMax, relGap(got, ans.Objective))
		req = from.req
	}
	if err := checkAnswer(req, ans); err != nil {
		v.violate("answer %s: %v", ans.FingerprintHx, err)
	}
}

// checkScheme1 holds a fixed sample of deadline answers to the paper's
// Fig. 8 claim: no more energy than Scheme 1 on the same instance and T.
func (v *verdict) checkScheme1(sample []produced) {
	for _, p := range sample {
		sys, err := serve.SystemFromJSON(p.req.System)
		if err != nil {
			v.violate("scheme 1 sample: %v", err)
			continue
		}
		a, err := baselines.Scheme1(sys, p.req.TotalDeadlineS, baselines.Scheme1Options{})
		if err != nil {
			continue // Scheme 1 found no allocation; the bound holds trivially
		}
		ratio := schemeRatio(p.req, p.ans, a)
		v.scheme1Checked++
		v.scheme1Worst = math.Max(v.scheme1Worst, ratio)
		if !(ratio <= 1+reportTol) {
			v.violate("deadline answer uses %.6g× Scheme 1's energy", ratio)
		}
	}
}

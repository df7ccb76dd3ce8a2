package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSteady runs every workload `runs` times with seeds 1..runs, reversing
// the workload order on every other pass, each run in its own process as
// a single benchmark run is started. It prints, per workload and metric,
// the median, the quartiles (Python's statistics.quantiles, exclusive
// method), their distance as a share of the median, and the min–max; the
// failed share of attempted operations; and the host's steal time per run.
func runSteady(bin, outDir string, workloads []string, runs, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	failShare := map[string][]string{}
	steal := map[string][]string{}
	for i := 0; i < runs; i++ {
		order := append([]string(nil), workloads...)
		if i%2 == 1 {
			for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
				order[l], order[r] = order[r], order[l]
			}
		}
		for _, w := range order {
			seed := i + 1
			cmd := exec.Command(self, "-daemon", bin, "-out", outDir, "-workload", w, "-seed", strconv.Itoa(seed),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var out output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				return fmt.Errorf("%s seed %d: no result line (%v): %s", w, seed, runErr, stdout.String())
			}
			if runErr != nil || !out.Correct {
				return fmt.Errorf("%s seed %d failed (%v):\n%s", w, seed, runErr, stdout.String())
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for k, m := range out.Metrics {
				values[w][k] = append(values[w][k], m.Value)
				units[k] = m.Unit
			}
			failShare[w] = append(failShare[w], fmt.Sprintf("%d/%d", out.Failed, out.Attempted))
			for _, l := range lines {
				if v, ok := strings.CutPrefix(l, "host: steal time "); ok {
					steal[w] = append(steal[w], strings.Fields(v)[0])
				}
			}
			fmt.Fprintf(os.Stderr, "steady: run %d/%d %s seed %d done\n", i+1, runs, w, seed)
		}
	}
	for _, w := range workloads {
		fmt.Printf("%s (%d runs)\n", w, runs)
		fmt.Printf("  %-24s %12s %12s %12s %8s %12s %12s %s\n", "metric", "median", "q1", "q3", "iqr/med", "min", "max", "unit")
		names := make([]string, 0, len(values[w]))
		for k := range values[w] {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			xs := append([]float64(nil), values[w][k]...)
			sort.Float64s(xs)
			q1, q2, q3 := quartiles(xs)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Printf("  %-24s %12.6g %12.6g %12.6g %8.4f %12.6g %12.6g %s\n", k, q2, q1, q3, spread, xs[0], xs[len(xs)-1], units[k])
		}
		fmt.Printf("  failed/attempted: %s\n", strings.Join(failShare[w], " "))
		fmt.Printf("  host steal time per run: %s\n", strings.Join(steal[w], " "))
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) with its default
// exclusive method; xs must be sorted and hold at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		return xs[0], xs[0], xs[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

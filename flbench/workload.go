package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/stream"
)

type opKind int

const (
	opSolve  opKind = iota // POST /v1/solve of a fresh instance
	opProbe                // a cold-weighted noise-density probe
	opReplay               // device-drift: POST /v1/solve of the device's current system
	opDelta                // device-drift: one NDJSON delta on the device's session
	opOpen                 // device-drift set-up: POST /v1/stream
)

// op is one pre-built operation: the request body plus the instance its
// answer must be checked against.
type op struct {
	kind opKind
	body []byte
	req  *serve.SolveRequestJSON
	dev  *device
	// quality marks the fixed prefix whose objectives make objective_sum.
	quality bool
	// scheme1 marks the deadline answers compared against Scheme 1.
	scheme1 bool
}

// device is one device-drift fleet member: its session and its current
// system. Only the client that owns it touches it.
type device struct {
	id      string
	session string
	seq     uint64
	cur     *serve.SolveRequestJSON // as of the last generated op
}

// Workload sizes. Every value here is part of the benchmark's definition;
// README.md lists them with the reasons.
const (
	coldRound       = 50  // paper instances per cold-weighted round, plus one probe
	coldQuality     = 2   // rounds per client summed into objective_sum
	coldDeviceIDs   = 16  // device IDs per client that hash-route cold instances
	deadlineRound   = 8   // one instance per p_max of 5..12 dBm
	deadlineQuality = 8   // eight rounds cover the p_max × T grid twice
	scheme1PerRun   = 4   // first deadline answers per client checked against Scheme 1
	driftDevices    = 32  // devices per client
	driftN          = 15  // devices per FL system in device-drift
	driftRound      = 20  // operations per device-drift round
	driftReplay     = 0.6 // share of replays among device-drift operations
	driftGains      = 3   // gains moved per delta
	driftSigma      = 0.2 // log-normal drift of a moved gain, in nepers
	driftQuality    = 1   // rounds per client summed into objective_sum (after the opens)
	coldRSSRounds   = 20  // rounds per client before peak_rss_mb is read
	driftRSSRounds  = 250 // likewise; deadline reads it after its quality rounds
	probeCount      = 8
	probeSeed       = 0x5eed // probes must not depend on --seed
	warmupSeed      = 0x3a11 // nor the fixed warm-up list
)

var deadlineGrid = []float64{80, 100, 120, 150}

// workload generates a run's operations. round(c, r) is deterministic in
// (seed, c, r) as long as each client asks for its rounds in order.
type workload struct {
	clients int
	// setup returns client c's set-up operations (warm-ups or session
	// opens); they are re-generated for every set-up repetition.
	setup func(c int) []op
	round func(c, r int) []op
	// minRounds is how many rounds each client must finish so that the
	// quality prefix is complete.
	minRounds int
	// rssOps is the number of timed operations after which the daemon's
	// peak RSS is read. A fixed amount of work, not the end of the run:
	// the caches grow with every answer, so a reading at the end would
	// rise with throughput and count a speed-up as a memory regression.
	rssOps int
}

func newWorkload(name string, seed int64, clients int) (*workload, error) {
	switch name {
	case "cold-weighted":
		return coldWeighted(seed, clients), nil
	case "deadline":
		return deadline(seed, clients), nil
	case "device-drift":
		return deviceDrift(seed, clients), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-weighted, deadline or device-drift)", name)
}

func clientRNG(seed int64, salt, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(salt)*7919 + int64(c)))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of finite floats are encoded
	}
	return b
}

// draw builds one paper-default instance (Section VII-A) of n devices.
func draw(rng *rand.Rand, n int, pmaxDBm float64) serve.SystemJSON {
	sc := experiments.Default()
	sc.N = n
	if pmaxDBm != 0 {
		sc.PMaxDBm = pmaxDBm
	}
	sys, err := sc.Build(rng)
	if err != nil {
		panic(err) // the default scenario always builds
	}
	return serve.SystemToJSON(sys)
}

func solveOp(kind opKind, req *serve.SolveRequestJSON) op {
	return op{kind: kind, body: mustJSON(req), req: req}
}

func weighted(sys serve.SystemJSON, k int, id string) *serve.SolveRequestJSON {
	req := &serve.SolveRequestJSON{System: sys, DeviceID: id}
	w := experiments.WeightPairs()[k%len(experiments.WeightPairs())]
	req.Weights.W1, req.Weights.W2 = w.W1, w.W2
	return req
}

// coldWeighted: fresh N = 50 instances cycling the five weight pairs, one
// probe per round whose noise density lies in 1e-300..1e-200 W/Hz.
func coldWeighted(seed int64, clients int) *workload {
	probes := make([]*serve.SolveRequestJSON, probeCount)
	prng := rand.New(rand.NewSource(probeSeed))
	for i := range probes {
		sys := draw(prng, 50, 0)
		sys.N0WPerHz = math.Pow(10, -300+100*prng.Float64())
		probes[i] = weighted(sys, i, "")
	}
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = clientRNG(seed, 1, c)
	}
	return &workload{
		clients:   clients,
		minRounds: coldQuality,
		rssOps:    clients * coldRSSRounds * (coldRound + 1),
		setup: func(c int) []op {
			rng := rand.New(rand.NewSource(warmupSeed + int64(c)))
			ops := make([]op, 2)
			for k := range ops {
				ops[k] = solveOp(opSolve, weighted(draw(rng, 50, 0), k, fmt.Sprintf("cw%d-%d", c, k)))
			}
			return ops
		},
		round: func(c, r int) []op {
			rng := rngs[c]
			ops := make([]op, 0, coldRound+1)
			for k := 0; k < coldRound; k++ {
				o := solveOp(opSolve, weighted(draw(rng, 50, 0), k, fmt.Sprintf("cw%d-%d", c, k%coldDeviceIDs)))
				o.quality = r < coldQuality
				ops = append(ops, o)
			}
			p := *probes[(c+r)%probeCount]
			p.DeviceID = fmt.Sprintf("cw%d-%d", c, r%coldDeviceIDs)
			at := rng.Intn(coldRound + 1)
			ops = append(ops[:at], append([]op{solveOp(opProbe, &p)}, ops[at:]...)...)
			return ops
		},
	}
}

// deadlineReq builds a deadline-mode request whose equal-split start (B/N,
// p_max, f_max) meets T, which guarantees the instance is feasible; draws
// that fail it are replaced by the next draw.
func deadlineReq(rng *rand.Rand, pmaxDBm, total float64, id string) *serve.SolveRequestJSON {
	for {
		sys := draw(rng, 50, pmaxDBm)
		n := len(sys.Devices)
		p, b, f := make([]float64, n), make([]float64, n), make([]float64, n)
		for i, d := range sys.Devices {
			p[i], b[i], f[i] = d.PMaxW, sys.BandwidthHz/float64(n), d.FMaxHz
		}
		if evaluate(&sys, p, b, f).Total <= total {
			req := &serve.SolveRequestJSON{System: sys, Mode: "deadline", TotalDeadlineS: total, DeviceID: id}
			req.Weights.W1 = 1
			return req
		}
	}
}

// deadline: fresh N = 50 instances in deadline mode; each round sweeps
// p_max over Fig. 8's 5..12 dBm, and the deadline rotates through
// Figs. 7–8's {80, 100, 120, 150} s so four rounds cover the grid once.
func deadline(seed int64, clients int) *workload {
	rngs := make([]*rand.Rand, clients)
	for c := range rngs {
		rngs[c] = clientRNG(seed, 2, c)
	}
	return &workload{
		clients:   clients,
		minRounds: deadlineQuality,
		rssOps:    clients * deadlineQuality * deadlineRound,
		setup: func(c int) []op {
			rng := rand.New(rand.NewSource(warmupSeed + int64(c)))
			return []op{solveOp(opSolve, deadlineReq(rng, 12, 150, fmt.Sprintf("dl%d-w", c)))}
		},
		round: func(c, r int) []op {
			rng := rngs[c]
			ops := make([]op, deadlineRound)
			for k, i := range rng.Perm(deadlineRound) {
				t := deadlineGrid[(i+r)%len(deadlineGrid)]
				o := solveOp(opSolve, deadlineReq(rng, 5+float64(i), t, fmt.Sprintf("dl%d-%d", c, i)))
				o.quality = r < deadlineQuality
				o.scheme1 = r == 0 && k < scheme1PerRun
				ops[k] = o
			}
			return ops
		},
	}
}

// deviceDrift: each client owns driftDevices devices, each with its own
// N = 15 system and stream session. A round mixes replays of a device's
// current system (cache hits) with deltas that drift a few of its gains.
func deviceDrift(seed int64, clients int) *workload {
	fleets := make([][]*device, clients)
	rngs := make([]*rand.Rand, clients)
	return &workload{
		clients:   clients,
		minRounds: driftQuality,
		rssOps:    clients * driftRSSRounds * driftRound,
		setup: func(c int) []op {
			rng := clientRNG(seed, 3, c)
			fleets[c] = make([]*device, driftDevices)
			ops := make([]op, driftDevices)
			for d := range fleets[c] {
				dev := &device{id: fmt.Sprintf("dd%d-%d", c, d)}
				dev.cur = weighted(draw(rng, driftN, 0), d, dev.id)
				fleets[c][d] = dev
				o := solveOp(opOpen, dev.cur)
				o.dev, o.quality = dev, true
				ops[d] = o
			}
			rngs[c] = rng
			return ops
		},
		round: func(c, r int) []op {
			rng, fleet := rngs[c], fleets[c]
			ops := make([]op, driftRound)
			for k := range ops {
				dev := fleet[rng.Intn(len(fleet))]
				if rng.Float64() < driftReplay {
					ops[k] = op{kind: opReplay, body: mustJSON(dev.cur), req: dev.cur, dev: dev}
				} else {
					next := *dev.cur
					next.System.Devices = append([]serve.DeviceJSON(nil), dev.cur.System.Devices...)
					dev.seq++
					delta := stream.DeltaJSON{Seq: dev.seq, Gains: map[int]float64{}}
					for _, i := range rng.Perm(driftN)[:driftGains] {
						g := next.System.Devices[i].Gain * math.Exp(driftSigma*rng.NormFloat64())
						next.System.Devices[i].Gain = g
						delta.Gains[i] = g
					}
					dev.cur = &next
					ops[k] = op{kind: opDelta, body: append(mustJSON(delta), '\n'), req: dev.cur, dev: dev}
				}
				ops[k].quality = r < driftQuality
			}
			return ops
		},
	}
}

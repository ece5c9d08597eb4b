package main

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"repro/internal/eval"
)

// sweepPinned is how many seeds have a pinned sim-sweep digest.
const sweepPinned = 5

// sweepSeed maps the run's seed onto 1..sweepPinned. A sweep's only
// correctness reference is its pinned output digest, and a pass is too
// long to pin every seed a run might be given, so every run checks
// against one.
func sweepSeed(seed int64) int64 {
	m := (seed - 1) % sweepPinned
	if m < 0 {
		m += sweepPinned
	}
	return m + 1
}

// sweepSuite is the sweep sim-sweep times: every experiment at the quick
// scale on two trial workers.
func sweepSuite(seed int64) eval.Suite {
	return eval.Suite{Seed: sweepSeed(seed), Quick: true, Workers: 2}
}

// sweepPass runs one pass, each experiment through its own one-ID
// Suite.Run (traced as an eval.exp.<id> span), and returns the SHA-256 of
// the tables — the bytes one Suite.Run over everything writes — and the
// time the experiments took.
func sweepPass(s eval.Suite, e *env, tr *tracer, pass int) (string, time.Duration, error) {
	h := sha256.New()
	var took time.Duration
	root := tr.begin("eval.sweep", 0, int64(pass))
	defer tr.end(root)
	for i, x := range s.Experiments() {
		t0 := e.now()
		sp := tr.begin("eval.exp."+x.ID, root, int64(i))
		err := s.Run(h, map[string]bool{x.ID: true})
		tr.end(sp)
		took += e.now().Sub(t0)
		if err != nil {
			return "", took, err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), took, nil
}

// measureSweep runs sim-sweep: whole passes while another fits in the
// budget (at least one). Its inputs are the experiments' own seeded
// trials; the captures set up for it warm the simulator and feed the
// traced run's layer phase.
func measureSweep(e *env, _ *inputs, budget time.Duration, tr *tracer) (*outcome, error) {
	s := sweepSuite(e.seed)
	o := &outcome{}
	var passes []float64
	g0 := readGC()
	var total time.Duration
	for pass := 0; ; pass++ {
		digest, d, err := sweepPass(s, e, tr, pass)
		passes = append(passes, d.Seconds())
		o.count(err)
		if err == nil {
			o.checkDigest(e, "sim-sweep", s.Seed, digest)
		}
		if total += d; total+d > budget {
			break
		}
	}
	g1 := readGC()

	p50, tail := dist("sweep", "_ms", "latency", "ms", scaled(passes, 1000))
	p50.speed, tail.speed = perTime, perTime
	sweepS := sampleQuantile(passes, 0.5)
	o.primary = sweepS
	o.metrics = []metric{p50, tail,
		{name: "sweep_s", value: sweepS, unit: "s", quantile: 0.5, samples: len(passes), speed: perTime},
		{name: "sweeps_per_s", key: "throughput_per_s", value: 1 / sweepS, unit: "1/s", speed: perRate},
		{name: "alloc_bytes_per_sweep", key: "alloc_bytes_per_op", value: perOp(g1.alloc-g0.alloc, len(passes)), unit: "B"},
	}
	return o, nil
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

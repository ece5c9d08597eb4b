// Command wbperf is this repository's benchmark. It times the reader's
// three ways of turning channel measurements into tag bits — live over
// the serving layer, offline through the batch decoders, and across the
// paper's figure sweep — end to end, and in a traced run layer by layer.
//
// Usage, from the repository root (bench/run.sh builds the command first):
//
//	bash bench/run.sh --workload serve-csi --seed 1 --seconds 20 --trace 0
//
// or from the bench directory:
//
//	go run ./wbperf -workload <name|all> -seed N [-seconds S] [-trace 0|1]
//	               [-spans file] [-repeat N]
//
// Every input is generated in-process from -seed. Each metric prints as
// one JSON line, sorted; the last line is the result object
// {correct, attempted, failed, metrics}, carrying the metrics
// BENCHMARK.json declares: the end-to-end set untraced, the per-layer set
// with -trace 1. Outputs are checked against reference decodes and pinned
// digests; any mismatch makes the command exit 1. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
)

//go:embed testdata/digests.json
var pinnedJSON []byte

// workload is one input mix the benchmark runs.
type workload struct {
	name string
	// The captures setup generates: nPlain of kind plain, nLong long-range.
	plain         captureKind
	nPlain, nLong int
	// measure runs the workload on in for budget, tracing when tr is set.
	measure func(e *env, in *inputs, budget time.Duration, tr *tracer) (*outcome, error)
}

// The capture counts keep each setup near 0.1 s or more of simulation, so
// setup_s is long enough to time steadily.
var workloads = []workload{
	{"serve-csi", csiKind, 8, 0, measureServeCSI},
	{"serve-churn", rssiKind, 32, 0, measureServeChurn},
	{"decode-frames", csiKind, 4, 2, measureDecodeFrames},
	{"sim-sweep", csiKind, 4, 0, measureSweep},
}

// env is what every phase of a run shares.
type env struct {
	seed  int64
	now   func() time.Time
	sleep func(time.Duration)
	log   io.Writer
	// pins maps "<workload>/<seed>" to a pinned output digest.
	pins map[string]string
}

// tally counts a phase's operations and keeps its first few failures.
type tally struct {
	attempted, failed int
	errs              []error
}

// outcome is what one measured phase of a workload found.
type outcome struct {
	tally
	// metrics are the end-to-end metrics; layer the per-layer numbers
	// only this phase can take; stats the serving counters of the
	// phase's TCP server, when it had one.
	metrics []metric
	layer   []metric
	stats   *serve.Stats
	// primary is the headline number trace.overhead_pct compares.
	primary        float64
	higherIsBetter bool
}

// count records one attempted operation and whether it failed.
func (o *tally) count(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.errs) < 3 {
			o.errs = append(o.errs, err)
		}
	}
}

// absorb adds another tally's operations and failures to o.
func (o *tally) absorb(p *tally) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, err := range p.errs {
		if len(o.errs) < 3 {
			o.errs = append(o.errs, err)
		}
	}
}

// checkDigest compares an output digest with the one pinned for seed, if
// any. A mismatch means the run's outputs are wrong: all its operations
// count as failed.
func (o *outcome) checkDigest(e *env, workload string, seed int64, got string) {
	want, ok := e.pins[workload+"/"+strconv.FormatInt(seed, 10)]
	status := "no pinned digest for this seed"
	switch {
	case ok && want == got:
		status = "matches the pinned digest"
	case ok:
		status = "DIFFERS from the pinned " + want
		o.failed = o.attempted
		o.errs = append(o.errs, fmt.Errorf("output digest %s differs from the pinned %s", got, want))
	}
	fmt.Fprintf(e.log, "wbperf: %s seed %d output sha256 %s: %s\n", workload, seed, got, status)
}

func main() {
	os.Exit(run(os.Args[1:], time.Now, time.Sleep, os.Stdout, os.Stderr))
}

func run(args []string, now func() time.Time, sleep func(time.Duration), stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wbperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-csi, serve-churn, decode-frames, sim-sweep, or all")
	seed := fs.Int64("seed", 1, "seed every input derives from")
	seconds := fs.Float64("seconds", 20, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced layer breakdown instead of the end-to-end measurement")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans.json"),
		"span file of a traced run; the workload name is inserted before the extension")
	repeat := fs.Int("repeat", 1, "run N times and report each metric's median, quartiles and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var sel []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			sel = append(sel, w)
		}
	}
	switch {
	case len(sel) == 0:
		fmt.Fprintf(stderr, "wbperf: unknown -workload %q (want serve-csi, serve-churn, decode-frames, sim-sweep or all)\n", *name)
		return 2
	case !(*seconds > 0):
		fmt.Fprintf(stderr, "wbperf: -seconds must be positive, got %v\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "wbperf: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *repeat < 1 || *repeat > 1 && *trace == 1:
		fmt.Fprintln(stderr, "wbperf: -repeat must be at least 1, and 1 with -trace 1")
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "wbperf: unexpected arguments %q\n", fs.Args())
		return 2
	}
	e := &env{seed: *seed, now: now, sleep: sleep, log: stderr}
	if err := json.Unmarshal(pinnedJSON, &e.pins); err != nil {
		fmt.Fprintln(stderr, "wbperf: pinned digests:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var reps []*report
	failed := false
	for _, w := range sel {
		rep, err := runWorkload(e, w, budget, *trace == 1, spansPath(*spans, w.name), *repeat)
		if err != nil {
			fmt.Fprintf(stderr, "wbperf: %s: %v\n", w.name, err)
			rep = &report{workload: w.name, attempted: 1, failed: 1}
		}
		failed = failed || rep.failed > 0
		reps = append(reps, rep)
	}
	if err := printLines(stdout, reps); err != nil {
		fmt.Fprintln(stderr, "wbperf:", err)
		return 1
	}
	if err := printResult(stdout, reps); err != nil {
		fmt.Fprintln(stderr, "wbperf:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// runWorkload runs w once traced, or n times untraced (once when n is 1).
func runWorkload(e *env, w workload, budget time.Duration, traced bool, spansFile string, n int) (*report, error) {
	switch {
	case traced:
		return atMachineSpeed(func() (*report, error) { return runTraced(e, w, budget, spansFile) })
	case n > 1:
		return runRepeated(e, w, budget, n)
	}
	return runOnce(e, w, budget)
}

// spansPath inserts the workload name before path's extension.
func spansPath(path, workload string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + workload + ext
}

// setupReps is how many times a run builds its inputs; setup_s is the
// median.
const setupReps = 5

// setup builds w's inputs setupReps times and returns the last set and
// the median build time.
func setup(e *env, w workload) (*inputs, metric, error) {
	var in *inputs
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := e.now()
		var err error
		if in, err = buildInputs(e.seed, w.plain, w.nPlain, w.nLong, e.now, nil); err != nil {
			return nil, metric{}, fmt.Errorf("setup: %w", err)
		}
		times = append(times, e.now().Sub(t0).Seconds())
	}
	return in, metric{name: "setup_s", key: "setup_s", value: sampleQuantile(times, 0.5), unit: "s",
		quantile: 0.5, samples: len(times), speed: perTime}, nil
}

func (o *outcome) logErrs(e *env, workload string) {
	for _, err := range o.errs {
		fmt.Fprintf(e.log, "wbperf: %s: %v\n", workload, err)
	}
	if o.failed > len(o.errs) {
		fmt.Fprintf(e.log, "wbperf: %s: %d of %d operations failed\n", workload, o.failed, o.attempted)
	}
}

// tailKey is the result-line key of a workload's tail latency, which
// BENCHMARK.json lists per layer rather than end to end: on a shared
// two-core host it spreads by 20-45% from run to run, more than an
// end-to-end bound can absorb. The traced run reports it from its
// untraced phase; the untraced run prints the tail as a line only.
const tailKey = "latency_tail_ms"

// atMachineSpeed runs a workload run with a speed probe going throughout
// and scales the run's timings to the reference machine speed.
func atMachineSpeed(run func() (*report, error)) (*report, error) {
	probe := startProbe()
	r, err := run()
	f, n, perr := probe.factor()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	for i, m := range r.metrics {
		r.metrics[i] = m.atSpeed(f)
	}
	r.metrics = append(r.metrics, metric{name: "speed_factor", value: f, unit: "ratio", quantile: 0.5, samples: n})
	return r, nil
}

// runOnce is the untraced run: set up, measure, and report the
// end-to-end metrics.
func runOnce(e *env, w workload, budget time.Duration) (*report, error) {
	return atMachineSpeed(func() (*report, error) { return measureOnce(e, w, budget) })
}

func measureOnce(e *env, w workload, budget time.Duration) (*report, error) {
	in, setupS, err := setup(e, w)
	if err != nil {
		return nil, err
	}
	o, err := w.measure(e, in, budget, nil)
	if err != nil {
		return nil, err
	}
	o.logErrs(e, w.name)
	r := &report{workload: w.name, attempted: o.attempted, failed: o.failed}
	r.metrics = append(r.metrics, setupS)
	for _, m := range o.metrics {
		if m.key == tailKey {
			m.key = ""
		}
		r.metrics = append(r.metrics, m)
	}
	r.metrics = append(r.metrics, peakRSS().keyed("peak_rss_mb"), failedRatio(o.failed, o.attempted))
	return r, nil
}

// runRepeated runs the untraced run n times and reports each metric's
// median, with its quartiles and spread alongside.
func runRepeated(e *env, w workload, budget time.Duration, n int) (*report, error) {
	var runs []*report
	for i := 0; i < n; i++ {
		r, err := runOnce(e, w, budget)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	out := &report{workload: w.name}
	for _, r := range runs {
		out.attempted += r.attempted
		out.failed += r.failed
	}
	for j, m := range runs[0].metrics {
		vals := make([]float64, n)
		for i, r := range runs {
			vals[i] = r.metrics[j].value
		}
		q1, q2, q3 := quartiles(vals)
		m.value, m.spread = q2, &spread{Q1: q1, Q3: q3, Runs: n}
		if q2 != 0 {
			m.spread.Spread = (q3 - q1) / q2
		}
		out.metrics = append(out.metrics, m)
	}
	return out, nil
}

// runTraced is the traced run: one untraced phase (the baseline
// trace.overhead_pct compares against, the runtime counters, and the
// tail latency), the same phase traced, then the layer phase; each
// gets the share of the budget below. Per-layer metrics come from the
// spans, which are written to spansFile.
func runTraced(e *env, w workload, budget time.Duration, spansFile string) (*report, error) {
	const untracedShare, tracedShare, layerShare = 0.4, 0.4, 0.2
	tr := newTracer(e.now)
	in, err := buildInputs(e.seed, w.plain, w.nPlain, w.nLong, e.now, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if len(in.long) == 0 {
		lr, err := buildInputs(e.seed, w.plain, 0, 1, e.now, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		in.long = lr.long
	}
	share := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }
	g0 := readGC()
	u, err := w.measure(e, in, share(untracedShare), nil)
	if err != nil {
		return nil, err
	}
	g1 := readGC()
	t, err := w.measure(e, in, share(tracedShare), tr)
	if err != nil {
		return nil, err
	}
	l, tot, err := runLayers(e, in, share(layerShare), tr)
	if err != nil {
		return nil, err
	}
	r := &report{workload: w.name}
	for _, o := range []*outcome{u, t, l} {
		o.logErrs(e, w.name)
		r.attempted += o.attempted
		r.failed += o.failed
	}
	spans := tr.snapshot()
	sum := summarize(spans)
	hs := tr.histStats()
	if err := writeSpans(spansFile, w.name, e.seed, spans, sum, hs); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "wbperf: %s: %d spans written to %s\n", w.name, len(spans), spansFile)
	r.metrics = layerMetrics(sum, hs, tot, u, t)
	r.metrics = append(r.metrics, runtimeMetrics(g0, g1)...)
	// The untraced phase's end-to-end numbers print too, so the layers
	// can be checked against them; only the tail goes into the result line.
	for _, m := range u.metrics {
		if m.key != tailKey {
			m.key = ""
		}
		r.metrics = append(r.metrics, m)
	}
	return r, nil
}

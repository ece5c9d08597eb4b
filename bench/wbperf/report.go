package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
)

// metric is one reported number.
type metric struct {
	// name is what the metric's own output line calls it; key, when set,
	// is its name in the result line, the one BENCHMARK.json declares.
	name, key string
	value     float64
	unit      string
	// quantile and samples describe a percentile: which one it reports and
	// how many samples it summarizes. Both are zero for other metrics.
	quantile float64
	samples  int
	// spread, when set, says how the value varied over repeated runs; the
	// value is then their median.
	spread *spread
	// speed marks a timing that atSpeed scales to the reference machine
	// speed (see speed.go): perTime for a duration, perRate for a rate.
	// raw keeps the value as measured once it is scaled.
	speed int
	raw   *float64
}

// Kinds of scaled timing.
const (
	perTime = 1
	perRate = -1
)

// atSpeed scales a timing measured at speed factor f (see speed.go).
func (m metric) atSpeed(f float64) metric {
	if m.speed == 0 {
		return m
	}
	raw := m.value
	m.raw = &raw
	if m.speed == perTime {
		m.value /= math.Pow(f, speedExponent)
	} else {
		m.value *= math.Pow(f, speedExponent)
	}
	return m
}

// spread is a metric's variation over repeated runs: its quartiles, by
// the same rule as Python's statistics.quantiles(values, n=4), and their
// distance as a share of the median.
type spread struct {
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	Runs   int     `json:"runs"`
}

// keyed returns m under result-line key k.
func (m metric) keyed(k string) metric {
	m.key = k
	return m
}

// quantiles returns the median and the tail of n samples by the
// percentile rule (see tailQuantile), named <prefix>_p50<suffix> and
// <prefix>_p<NN><suffix> — p99 when the sample count supports it, else
// the highest percentile it does. Their result-line keys are
// <key>_p50<suffix> and <key>_tail<suffix> when key is set. A tail that is
// the median gets no line of its own. at returns the sample at quantile q.
func quantiles(prefix, suffix, key, unit string, n int, at func(q float64) float64) (p50, tail metric) {
	q := tailQuantile(n)
	p50 = metric{name: prefix + "_p50" + suffix, value: at(0.5), unit: unit, quantile: 0.5, samples: n}
	tail = metric{name: fmt.Sprintf("%s_p%d%s", prefix, int(math.Round(q*100)), suffix),
		value: at(q), unit: unit, quantile: q, samples: n}
	if q == 0.5 {
		tail.name = ""
	}
	if key != "" {
		p50.key, tail.key = key+"_p50"+suffix, key+"_tail"+suffix
	}
	return p50, tail
}

// dist applies quantiles to a sample slice, which it sorts in place.
func dist(prefix, suffix, key, unit string, xs []float64) (p50, tail metric) {
	sort.Float64s(xs)
	return quantiles(prefix, suffix, key, unit, len(xs), func(q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return xs[nearestRank(len(xs), q)]
	})
}

// histDist applies quantiles to a nanosecond histogram, reporting values
// in units of scale nanoseconds.
func histDist(prefix, suffix, key, unit string, h *hist, scale float64) (p50, tail metric) {
	return quantiles(prefix, suffix, key, unit, int(h.n), func(q float64) float64 { return h.quantile(q) / scale })
}

// report is the outcome of one run of one workload.
type report struct {
	workload          string
	attempted, failed int
	metrics           []metric
}

// outLine is one printed metric.
type outLine struct {
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Value    float64  `json:"value"`
	Unit     string   `json:"unit"`
	Quantile float64  `json:"quantile,omitempty"`
	Samples  int      `json:"samples,omitempty"`
	Raw      *float64 `json:"raw,omitempty"`
	Repeat   *spread  `json:"repeat,omitempty"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// finite keeps a value JSON-encodable: a tail made of failed sessions
// (+Inf) prints as the largest float.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v), math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// printLines writes each metric of each report as one JSON line, sorted by
// workload and metric name.
func printLines(w io.Writer, reps []*report) error {
	var out []outLine
	for _, r := range reps {
		for _, m := range r.metrics {
			if m.name == "" {
				continue
			}
			l := outLine{r.workload, m.name, finite(m.value), m.unit, m.quantile, m.samples, nil, m.spread}
			if m.raw != nil {
				raw := finite(*m.raw)
				l.Raw = &raw
			}
			out = append(out, l)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Metric < out[j].Metric
	})
	enc := json.NewEncoder(w)
	for _, l := range out {
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	return nil
}

// printResult writes the final result line. With one report the metric
// keys are the contract names; with several each is prefixed by its
// workload.
func printResult(w io.Writer, reps []*report) error {
	res := result{Metrics: make(map[string]valueUnit)}
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, m := range r.metrics {
			if m.key == "" {
				continue
			}
			key := m.key
			if len(reps) > 1 {
				key = r.workload + "/" + m.key
			}
			res.Metrics[key] = valueUnit{finite(m.value), m.unit}
		}
	}
	res.Correct = res.Failed == 0
	return json.NewEncoder(w).Encode(res)
}

// failedRatio is failed operations over attempted ones.
func failedRatio(failed, attempted int) metric {
	v := 0.0
	if attempted > 0 {
		v = float64(failed) / float64(attempted)
	}
	return metric{name: "failed_ratio", value: v, unit: "ratio"}
}

// peakRSS is the process's peak resident set, from getrusage (Linux
// reports it in KiB). It is a process high-water mark: several workloads
// run in one process share it.
func peakRSS() metric {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	return metric{name: "peak_rss_mb", value: float64(ru.Maxrss) / 1024, unit: "MB"}
}

// allocCount is a reading of the cumulative heap allocation counters.
type allocCount struct{ objects, bytes uint64 }

func (a allocCount) minus(b allocCount) allocCount {
	return allocCount{a.objects - b.objects, a.bytes - b.bytes}
}

// allocMeter reads the heap allocation counters without allocating. It
// uses runtime.ReadMemStats, which stops the world briefly but counts
// every object: runtime/metrics counts small objects only when a cache
// span is refilled, so it misses whole frames' worth. Each goroutine needs
// its own meter.
type allocMeter struct{ ms runtime.MemStats }

func newAllocMeter() *allocMeter { return new(allocMeter) }

func (m *allocMeter) read() allocCount {
	runtime.ReadMemStats(&m.ms)
	return allocCount{m.ms.Mallocs, m.ms.TotalAlloc}
}

// gcReading is the runtime's GC and allocation totals at one moment.
type gcReading struct {
	cycles  uint32
	pauseNs uint64
	alloc   uint64
}

func readGC() gcReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcReading{ms.NumGC, ms.PauseTotalNs, ms.TotalAlloc}
}

// runtimeMetrics reports the GC work and allocation between two readings.
func runtimeMetrics(a, b gcReading) []metric {
	return []metric{
		{name: "runtime.gc_cycles", key: "runtime.gc_cycles", value: float64(b.cycles - a.cycles), unit: "count"},
		{name: "runtime.gc_pause_ms", key: "runtime.gc_pause_ms", value: float64(b.pauseNs-a.pauseNs) / 1e6, unit: "ms"},
		{name: "runtime.alloc_mb", key: "runtime.alloc_mb", value: float64(b.alloc-a.alloc) / (1 << 20), unit: "MB"},
	}
}

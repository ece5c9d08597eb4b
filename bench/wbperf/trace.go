package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// bench around the layer's public function (the program itself carries no
// spans). Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Key names what the span worked on: a session or frame number within
	// its phase.
	Key   int64 `json:"key"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Allocs and Bytes are the heap allocations made inside the span, for
	// the Metered spans, which ran on a single goroutine.
	Metered bool  `json:"metered,omitempty"`
	Allocs  int64 `json:"allocs,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
}

// tracer keeps spans and per-push histograms in memory for one traced
// run. A nil *tracer records nothing, which is how untraced phases run
// the same code. It is safe for concurrent use.
type tracer struct {
	now   func() time.Time
	epoch time.Time

	mu    sync.Mutex
	spans []span
	hists map[string]*hist
}

func newTracer(now func() time.Time) *tracer {
	return &tracer{now: now, epoch: now(), hists: make(map[string]*hist)}
}

// begin opens a span at the current time and returns its id (0 when t is
// nil). Close it with end.
func (t *tracer) begin(name string, parent int, key int64) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key,
		Start: int64(start.Sub(t.epoch)), End: -1})
	return len(t.spans)
}

// end closes span id at the current time.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	stop := t.now()
	t.mu.Lock()
	t.spans[id-1].End = int64(stop.Sub(t.epoch))
	t.mu.Unlock()
}

// add records a span whose bounds were taken by the caller, such as one
// that starts at a due time rather than at a call.
func (t *tracer) add(name string, parent int, key int64, start, stop time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key,
		Start: int64(start.Sub(t.epoch)), End: int64(stop.Sub(t.epoch))})
	return len(t.spans)
}

// allocs attaches heap allocation counts to span id.
func (t *tracer) allocs(id int, a allocCount) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Metered = true
	t.spans[id-1].Allocs, t.spans[id-1].Bytes = int64(a.objects), int64(a.bytes)
	t.mu.Unlock()
}

// fold adds one per-push duration to the named histogram.
func (t *tracer) fold(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	h := t.hists[name]
	if h == nil {
		h = new(hist)
		t.hists[name] = h
	}
	h.add(int64(d))
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its direct children cover, overlapping children counted once
// and clipped to the parent's bounds.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent > 0 && s.Parent <= len(spans) {
			kids[s.Parent-1] = append(kids[s.Parent-1], i)
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i, s := range spans {
		ivs = ivs[:0]
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanStat summarizes every span of one name by its self time.
type spanStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
	P50   float64 `json:"self_p50_ms"`
	Tail  float64 `json:"self_tail_ms"`
	TailQ float64 `json:"tail_quantile"`
	// self holds the individual self times in ms; allocs and bytes the
	// per-span allocation counts where measured.
	self, allocs, bytes []float64
}

// summarize groups closed spans by name, sorted by name.
func summarize(spans []span) []*spanStat {
	self := selfTimes(spans)
	byName := make(map[string]*spanStat)
	var names []string
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		st.Count++
		st.Total += float64(s.End-s.Start) / 1e6
		st.Self += float64(self[i]) / 1e6
		st.self = append(st.self, float64(self[i])/1e6)
		if s.Metered {
			st.allocs = append(st.allocs, float64(s.Allocs))
			st.bytes = append(st.bytes, float64(s.Bytes))
		}
	}
	sort.Strings(names)
	out := make([]*spanStat, 0, len(names))
	for _, n := range names {
		st := byName[n]
		st.TailQ = tailQuantile(len(st.self))
		st.P50 = sampleQuantile(st.self, 0.5)
		st.Tail = sampleQuantile(st.self, st.TailQ)
		out = append(out, st)
	}
	return out
}

// histStat is one per-push histogram as written to the span file.
type histStat struct {
	Name  string     `json:"name"`
	Count uint64     `json:"count"`
	Sum   float64    `json:"sum_ns"`
	Min   int64      `json:"min_ns"`
	Max   int64      `json:"max_ns"`
	P50   float64    `json:"p50_ns"`
	Tail  float64    `json:"tail_ns"`
	TailQ float64    `json:"tail_quantile"`
	Bins  [][2]int64 `json:"buckets"` // [bucket low bound ns, count], non-empty buckets only
	h     *hist
}

// histStats returns the folded histograms, sorted by name.
func (t *tracer) histStats() []*histStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.hists))
	for n := range t.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*histStat, 0, len(names))
	for _, n := range names {
		h := t.hists[n]
		hs := &histStat{Name: n, Count: h.n, Sum: h.sum, Min: h.min, Max: h.max, h: h}
		hs.TailQ = tailQuantile(int(h.n))
		hs.P50, hs.Tail = h.quantile(0.5), h.quantile(hs.TailQ)
		for i, c := range h.counts {
			if c > 0 {
				lo, _ := histRange(i)
				hs.Bins = append(hs.Bins, [2]int64{lo, int64(c)})
			}
		}
		out = append(out, hs)
	}
	return out
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the run's spans, histograms and per-name summary to
// path as one JSON document.
func writeSpans(path, workload string, seed int64, spans []span, sum []*spanStat, hs []*histStat) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	doc := struct {
		Workload   string      `json:"workload"`
		Seed       int64       `json:"seed"`
		Spans      []span      `json:"spans"`
		Summary    []*spanStat `json:"summary"`
		Histograms []*histStat `json:"histograms"`
	}{workload, seed, spans, sum, hs}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		_ = f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false,
	"recompute testdata/digests.json (slow: one quick sim sweep per pinned seed)")

// benchmarkDecl is the part of the repository's BENCHMARK.json this
// command must honor.
type benchmarkDecl struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// workloadNamed returns the workload called name.
func workloadNamed(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

// TestResultLineCarriesDeclaredMetrics runs serve-churn briefly, untraced
// and traced, and checks that the last line is the result object with
// exactly the metrics BENCHMARK.json declares, in the declared units.
func TestResultLineCarriesDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkDecl
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	w := workloadNamed(t, "serve-churn")
	w.nPlain = 2 // a short setup; the result line does not depend on it
	e := &env{seed: 3, now: time.Now, sleep: time.Sleep, log: io.Discard}
	for _, tc := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, decl.EndToEnd}, {true, decl.PerLayer}} {
		rep, err := runWorkload(e, w, 300*time.Millisecond, tc.traced, filepath.Join(t.TempDir(), "spans.json"), 1)
		if err != nil {
			t.Fatalf("traced=%v: %v", tc.traced, err)
		}
		var out bytes.Buffer
		if err := printLines(&out, []*report{rep}); err != nil {
			t.Fatal(err)
		}
		if err := printResult(&out, []*report{rep}); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("traced=%v: last line: %v", tc.traced, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("traced=%v: result correct=%v attempted=%d failed=%d", tc.traced, res.Correct, res.Attempted, res.Failed)
		}
		var got, want []string
		for k, v := range res.Metrics {
			got = append(got, k+" "+v.Unit)
		}
		for _, m := range tc.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("traced=%v: result metrics\n %v\nwant\n %v", tc.traced, got, want)
		}
	}
}

// TestPinnedDigests recomputes the pinned output digests of decode-frames
// and sim-sweep with -update; without it the benchmark itself checks them
// on every run.
func TestPinnedDigests(t *testing.T) {
	if !*update {
		t.Skip("run with -update to recompute testdata/digests.json")
	}
	w := workloadNamed(t, "decode-frames")
	pins := make(map[string]string)
	for seed := int64(1); seed <= sweepPinned; seed++ {
		in, err := buildInputs(seed, w.plain, w.nPlain, w.nLong, time.Now, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := newMixRunner(in)
		for i := range m.calls {
			if err := m.run(i, time.Now, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		pins[w.name+"/"+strconv.FormatInt(seed, 10)] = m.digest()
		d, _, err := sweepPass(sweepSuite(seed), &env{now: time.Now}, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pins["sim-sweep/"+strconv.FormatInt(seed, 10)] = d
	}
	out, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "digests.json"), append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

//go:build !race

package eval

// Four whole quick sweeps take about 60 s on 2 vCPU in a plain build and
// several times that under the race detector, past go test's default
// timeout for the package. The test runs in every plain `go test` and in
// `make faults-golden`; the trial engine's concurrency is checked under
// -race by the WorkerInvariance tests.

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

// TestStarvingFaultsFinishSweep runs the quick sweep under the profiles
// that starve the reader of the helper's traffic or keep the medium from
// granting a downlink window. A starved frame, slot or window is a
// measured loss, not an error: every experiment must finish, and the
// aggregate metrics must render as `wbbench -metrics` writes them.
func TestStarvingFaultsFinishSweep(t *testing.T) {
	for _, profile := range []string{"stalls", "wire-flaky", "bursty", "wire-partition"} {
		t.Run(profile, func(t *testing.T) {
			sched, err := faults.Profile(profile, 1)
			if err != nil {
				t.Fatal(err)
			}
			suite := Suite{Seed: 1, Quick: true, Metrics: obs.NewRegistry(), Faults: sched}
			if err := suite.Run(io.Discard, nil); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := suite.Metrics.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if !json.Valid(buf.Bytes()) || !bytes.Contains(buf.Bytes(), []byte(`"faults.windows"`)) {
				t.Errorf("metrics are not the faulted sweep's JSON:\n%s", buf.Bytes())
			}
		})
	}
}

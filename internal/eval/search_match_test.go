//go:build !race

package eval

// The figure-level comparisons of the searches with their references
// re-run every figure's trials twice, the reference's whole grid
// included: about 45 s on 2 vCPU in a plain build, several times that
// under the race detector, where they would crowd the package past go
// test's default timeout. They run in every plain `go test`; the
// searches' concurrency is checked under -race by
// TestRateSearchWorkerInvariance and TestAchievableRateWorkerInvariance.

import (
	"fmt"
	"testing"

	"repro/internal/faults"
)

// TestRateSearchMatchesReference renders fig12, fig15, fig16 and fig20
// with the top-down searches and with the exhaustive reference bodies,
// clean at several seeds and under fault profiles, and requires identical
// tables.
func TestRateSearchMatchesReference(t *testing.T) {
	type run struct {
		seed    int64
		profile string
	}
	runs := []run{{1, ""}, {2, ""}, {3, ""}, {1, "fading"}, {2, "corrupt"}, {3, "lossy"}, {1, "chaos"}}
	for _, r := range runs {
		opt := Options{Seed: r.seed, Trials: 2, PayloadLen: 16, Workers: 2}
		if r.profile != "" {
			sched, err := faults.Profile(r.profile, 1)
			if err != nil {
				t.Fatal(err)
			}
			opt.Faults = sched
		}
		for _, fig := range []struct {
			name      string
			got, want func(Options) (*Table, error)
		}{
			{"fig12", RateVsHelperRate, refRateVsHelperRate},
			{"fig15", AmbientTraffic, refAmbientTraffic},
			{"fig16", BeaconOnly, refBeaconOnly},
			{"fig20", CorrelationRange, refCorrelationRange},
		} {
			name := fmt.Sprintf("%s seed %d %q", fig.name, r.seed, r.profile)
			got, err := fig.got(opt)
			want, werr := fig.want(opt)
			if err != nil || werr != nil {
				t.Fatalf("%s: %v, reference %v", name, err, werr)
			}
			if got.String() != want.String() {
				t.Errorf("%s: table differs from the reference:\n%s\n%s", name, got, want)
			}
		}
	}
}

package eval

// Serial-vs-parallel equivalence tests: the trial engine's contract is
// that worker count never changes a result, only wall-clock time. These
// tests pin that property at the experiment level, where it matters — a
// regression here means some trial picked up hidden shared state.

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/uplink"
)

// TestUplinkSweepWorkerInvariance compares a full (reduced-scale) Fig. 10
// sweep at 1 worker against 4 workers: the rendered tables must match
// byte for byte.
func TestUplinkSweepWorkerInvariance(t *testing.T) {
	opt := Options{Seed: 99, Trials: 1, PayloadLen: 10}
	serial, par := opt, opt
	serial.Workers = 1
	par.Workers = 4
	a, err := UplinkBERvsDistance(uplink.StreamCSI, serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := UplinkBERvsDistance(uplink.StreamCSI, par)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("worker count changed the table:\nserial:\n%s\nparallel:\n%s", a, b)
	}
}

// TestDownlinkBERWorkerInvariance randomizes seed, scale, and worker
// count and demands identical tables from serial and parallel runs.
func TestDownlinkBERWorkerInvariance(t *testing.T) {
	f := func(seed int64, bitsRaw, workersRaw uint8) bool {
		bits := 50 + int(bitsRaw)%200
		workers := 2 + int(workersRaw)%5
		s, err := DownlinkBER(bits, seed, 1)
		if err != nil {
			return false
		}
		p, err := DownlinkBER(bits, seed, workers)
		if err != nil {
			return false
		}
		return s.String() == p.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Error(err)
	}
}

// TestAchievableRateWorkerInvariance drives the rate search with a
// synthetic (cheap, deterministic) trial function across random seeds,
// point, trial, and worker counts.
func TestAchievableRateWorkerInvariance(t *testing.T) {
	rates := []float64{100, 200, 500, 1000}
	f := func(seed int64, pointsRaw, trialsRaw, workersRaw uint8) bool {
		points := 1 + int(pointsRaw)%4
		trials := 1 + int(trialsRaw)%5
		workers := 1 + int(workersRaw)%8
		run := func(point, trial int, rate float64) (int, int, error) {
			// Error count depends only on (seed, point, rate, trial),
			// never on evaluation order.
			return rng.TrialStream(seed+int64(point)*7919+int64(rate), trial).Intn(3), 100, nil
		}
		a, err := achievableRates(parallel.New(1), points, trials, rates, run)
		if err != nil {
			return false
		}
		b, err := achievableRates(parallel.New(workers), points, trials, rates, run)
		if err != nil {
			return false
		}
		return slices.Equal(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFalsePositivesWorkerInvariance covers the seed-parameterized
// experiments' fan-out path.
func TestFalsePositivesWorkerInvariance(t *testing.T) {
	s, err := FalsePositives(0.005, 77, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FalsePositives(0.005, 77, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != p.String() {
		t.Fatalf("worker count changed the table:\nserial:\n%s\nparallel:\n%s", s, p)
	}
}

package tag

import (
	"fmt"
	"math"
)

// DownlinkPreamble is the 16-bit pattern that opens every downlink message
// (Fig. 7). It is chosen to have an irregular run-length structure so
// ordinary Wi-Fi traffic rarely imitates it (§8.2 measures < 30 false
// positives/hour).
var DownlinkPreamble = []bool{
	true, false, true, true, false, false, true, false,
	true, true, true, false, false, true, false, true,
}

// Decoder is the tag's microcontroller logic. It has the two power modes of
// §4.2: preamble-detection mode, where the µC sleeps until the comparator
// output transitions and matches inter-transition intervals against the
// preamble's run-length signature; and packet-decoding mode, where it wakes
// briefly at each bit midpoint to sample the comparator.
type Decoder struct {
	// BitDuration of downlink bits in seconds (50 µs at 20 kbps).
	BitDuration float64
	// Tolerance is the accepted relative deviation of each
	// inter-transition interval from the preamble's reference intervals.
	Tolerance float64
	// PayloadBits is the expected payload length including CRC
	// (64 in the paper's message format).
	PayloadBits int

	// Power accounting (§4.2, §6).
	Wakeups    int     // µC wake events (transitions + bit samples)
	AwakeTime  float64 // seconds spent awake
	FalseWakes int     // preamble matches that failed CRC/framing

	refRuns []float64 // matched run-length signature (all but the last run)
	lastRun float64   // the preamble's final run length, in bits
	edges   []edge
}

type edge struct {
	at    float64
	level bool
}

// preambleRuns derives the run-length signature of a bit pattern: the
// durations (in bit periods) between level transitions, and the level the
// pattern starts with.
func preambleRuns(p []bool) (runs []float64, first bool) {
	if len(p) == 0 {
		return nil, false
	}
	first = p[0]
	run := 1
	for i := 1; i < len(p); i++ {
		if p[i] == p[i-1] {
			run++
			continue
		}
		runs = append(runs, float64(run))
		run = 1
	}
	runs = append(runs, float64(run))
	return runs, first
}

// NewDecoder builds a decoder for the given bit duration.
func NewDecoder(bitDuration float64) (*Decoder, error) {
	if bitDuration <= 0 {
		return nil, fmt.Errorf("tag: bit duration must be positive, got %v", bitDuration)
	}
	runs, _ := preambleRuns(DownlinkPreamble)
	// The preamble's final run is only delimited by the first payload
	// transition, whose timing depends on payload content; match on the
	// preceding runs and use the final run's nominal length for
	// alignment.
	return &Decoder{
		BitDuration: bitDuration,
		Tolerance:   0.3,
		PayloadBits: 64,
		refRuns:     runs[:len(runs)-1],
		lastRun:     runs[len(runs)-1],
	}, nil
}

// PayloadStartAfterMatch returns when the payload's first bit period begins
// given the time of the matching transition reported by OnEdge (the
// transition into the preamble's final run).
func (d *Decoder) PayloadStartAfterMatch(matchTime float64) float64 {
	return matchTime + d.lastRun*d.BitDuration
}

// wakeCost is the µC active time charged per wake event (a brief sample or
// interval comparison).
const wakeCost = 5e-6

// OnEdge feeds a comparator output transition at time t to the
// preamble-detection mode. It returns true when the transition history
// matches the preamble's run-length signature, meaning a packet body is
// about to begin and the µC should switch to packet-decoding mode. The
// caller supplies edges in increasing time order.
func (d *Decoder) OnEdge(t float64, level bool) bool {
	d.Wakeups++
	d.AwakeTime += wakeCost
	// Keep just enough history for one preamble, shifting the window
	// down in place so that its slice never has to regrow.
	need := len(d.refRuns) + 1
	if len(d.edges) >= need {
		d.edges = d.edges[:copy(d.edges, d.edges[len(d.edges)-need+1:])]
	}
	d.edges = append(d.edges, edge{at: t, level: level})
	if len(d.edges) < need {
		return false
	}
	// The preamble ends with its last run; intervals between the stored
	// edges must match refRuns scaled by the bit duration. One interval
	// is allowed to miss — the analog front end occasionally merges or
	// splits an edge — which is also what lets ordinary traffic
	// occasionally fake a match (the Fig. 18 false positives).
	misses := 0
	for i := 0; i < len(d.refRuns); i++ {
		got := d.edges[i+1].at - d.edges[i].at
		want := d.refRuns[i] * d.BitDuration
		if math.Abs(got-want) > d.Tolerance*want {
			misses++
			if misses > 1 {
				return false
			}
		}
	}
	// The first stored edge must rise to the preamble's opening level.
	if !d.edges[0].level {
		return false
	}
	d.edges = d.edges[:0]
	return true
}

// Debounce applies the µC interrupt pin's glitch filter to a comparator
// sample stream: any run shorter than minRun samples is absorbed into the
// preceding level, so only transitions that hold trigger wake-ups. The
// input is not modified.
func Debounce(samples []bool, minRun int) []bool {
	out := append([]bool(nil), samples...)
	if minRun <= 1 || len(out) == 0 {
		return out
	}
	level := out[0]
	i := 0
	for i < len(out) {
		j := i
		for j < len(out) && out[j] == out[i] {
			j++
		}
		if out[i] != level && j-i < minRun {
			// Glitch: absorb into the current level.
			for k := i; k < j; k++ {
				out[k] = level
			}
		} else {
			level = out[i]
		}
		i = j
	}
	return out
}

// SampleMidBits decodes n bits from comparator samples in packet-decoding
// mode: the µC wakes at the midpoint of each bit period and takes one
// sample. samples holds the comparator output at sampleRate Hz, and start
// is the index where the first bit period begins.
func (d *Decoder) SampleMidBits(samples []bool, sampleRate float64, start int, n int) []bool {
	bits := make([]bool, 0, n)
	perBit := d.BitDuration * sampleRate
	for i := 0; i < n; i++ {
		idx := start + int((float64(i)+0.5)*perBit)
		if idx < 0 || idx >= len(samples) {
			break
		}
		d.Wakeups++
		d.AwakeTime += wakeCost
		bits = append(bits, samples[idx])
	}
	return bits
}

// MeanActivePowerMicrowatt converts the decoder's accounting into an
// average µC power over a horizon, given the µC's active and sleep power
// draws in µW.
func (d *Decoder) MeanActivePowerMicrowatt(horizon, activeUW, sleepUW float64) float64 {
	if horizon <= 0 {
		return 0
	}
	awake := d.AwakeTime
	if awake > horizon {
		awake = horizon
	}
	return (awake*activeUW + (horizon-awake)*sleepUW) / horizon
}

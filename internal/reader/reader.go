// Package reader implements the Wi-Fi reader's control plane: estimating
// the helper's achievable packet rate, advising the tag's uplink bit rate
// (§5: the reader computes N/M and sends it in the query), and the
// query/response transaction model with retransmission (§4.1).
package reader

import (
	"fmt"

	"repro/internal/downlink"
	"repro/internal/wifi"
)

// StandardRates lists the uplink bit rates the evaluation tests
// (100, 200, 500, 1000 bits/s).
var StandardRates = []float64{100, 200, 500, 1000}

// RateAdvisor computes the uplink bit rate the tag should use for the
// current network conditions: with the helper delivering N packets/second
// and the decoder needing M packets per bit, the rate is N/M, derated by a
// conservative safety factor to keep bits from starving under bursty
// traffic (§5).
type RateAdvisor struct {
	// PacketsPerBit is M, the channel measurements needed per bit. Advise
	// clamps a non-positive value to the default 4 (see Validate to catch
	// the misconfiguration instead of inheriting the clamp).
	PacketsPerBit int
	// Safety derates the raw N/M (the paper's "conservative bit rate
	// estimates"). Advise clamps values outside (0, 1] to the default
	// 0.8; Validate rejects them.
	Safety float64
	// Rates are the selectable bit rates, ascending. Empty means
	// StandardRates.
	Rates []float64
}

// NewRateAdvisor returns an advisor with the defaults used across the
// evaluation: 4 packets per bit and a 0.8 safety factor, which lands on
// the paper's 100 bps at a 500 pkt/s helper.
func NewRateAdvisor() RateAdvisor {
	return RateAdvisor{PacketsPerBit: 4, Safety: 0.8}
}

// Validate reports whether the advisor's parameters are in range: M must
// be positive, Safety in (0, 1], and every selectable rate positive.
// Advise never fails — out-of-range parameters are clamped to the
// defaults so a live control loop keeps advising — but that clamp is
// silent by design, so construction sites should call Validate once to
// surface a misconfiguration instead of quietly serving defaults.
func (ra RateAdvisor) Validate() error {
	if ra.PacketsPerBit <= 0 {
		return fmt.Errorf("reader: PacketsPerBit must be positive, got %d", ra.PacketsPerBit)
	}
	if ra.Safety <= 0 || ra.Safety > 1 {
		return fmt.Errorf("reader: Safety must be in (0, 1], got %v", ra.Safety)
	}
	for i, r := range ra.Rates {
		if r <= 0 {
			return fmt.Errorf("reader: rate %d must be positive, got %v", i, r)
		}
	}
	return nil
}

// Advise returns the highest selectable rate not exceeding
// Safety · N / M, or 0 when even the lowest rate cannot be sustained
// (including a zero or negative helper rate). Out-of-range PacketsPerBit
// and Safety are clamped to the NewRateAdvisor defaults (4 and 0.8) —
// call Validate at construction to reject them instead. Rates may be in
// any order; the scan picks the maximum qualifying rate directly, so no
// per-call sorting or copying happens.
func (ra RateAdvisor) Advise(helperPacketsPerSecond float64) float64 {
	if helperPacketsPerSecond <= 0 {
		return 0
	}
	m := ra.PacketsPerBit
	if m <= 0 {
		m = 4
	}
	safety := ra.Safety
	if safety <= 0 || safety > 1 {
		safety = 0.8
	}
	budget := safety * helperPacketsPerSecond / float64(m)
	rates := ra.Rates
	if len(rates) == 0 {
		rates = StandardRates
	}
	best := 0.0
	for _, r := range rates {
		if r <= budget && r > best {
			best = r
		}
	}
	return best
}

// RateEstimator measures the helper's delivered packet rate from monitor
// traffic over a sliding window.
type RateEstimator struct {
	// Window length in seconds.
	Window float64
	// times[head:] are the deliveries inside the window, oldest first.
	// An append that would grow the slice compacts it in place instead
	// once head is at least half its length.
	times []float64
	head  int
}

// NewRateEstimator returns an estimator with the given window (seconds).
func NewRateEstimator(window float64) (*RateEstimator, error) {
	if window <= 0 {
		return nil, fmt.Errorf("reader: window must be positive, got %v", window)
	}
	return &RateEstimator{Window: window}, nil
}

// Observe records a packet delivery at time t (seconds, non-decreasing).
func (e *RateEstimator) Observe(t float64) {
	cut := t - e.Window
	for e.head < len(e.times) && e.times[e.head] < cut {
		e.head++
	}
	if len(e.times) == cap(e.times) && e.head > 0 && 2*e.head >= len(e.times) {
		e.times = e.times[:copy(e.times, e.times[e.head:])]
		e.head = 0
	}
	e.times = append(e.times, t)
}

// Rate returns the packets/second estimate as of the last observation.
func (e *RateEstimator) Rate() float64 {
	n := len(e.times) - e.head
	if n == 0 {
		return 0
	}
	return float64(n) / e.Window
}

// Query is the reader's downlink request to a tag (§2's request-response
// model). It is carried in the 48 data bits of a downlink message:
// [8-bit command][16-bit tag ID][16-bit uplink bit rate][8-bit argument].
type Query struct {
	Command uint8
	TagID   uint16
	BitRate uint16 // advised uplink rate, bits/s
	Arg     uint8
}

// Commands.
const (
	// CmdRead asks the tag for its sensor payload.
	CmdRead uint8 = 1
	// CmdIdentify asks the tag to respond with its ID.
	CmdIdentify uint8 = 2
	// CmdAck acknowledges a tag transmission.
	CmdAck uint8 = 3
	// CmdInventory opens a slotted-ALOHA inventory round; Arg carries
	// the slot count.
	CmdInventory uint8 = 4
	// CmdAckHandle acknowledges a captured inventory handle (in TagID).
	CmdAckHandle uint8 = 5
)

// Encode packs the query into a downlink message.
func (q Query) Encode() downlink.Message {
	data := uint64(q.Command)<<40 | uint64(q.TagID)<<24 | uint64(q.BitRate)<<8 | uint64(q.Arg)
	return downlink.NewMessage(data)
}

// DecodeQuery unpacks a downlink message into a query.
func DecodeQuery(m downlink.Message) Query {
	return Query{
		Command: uint8(m.Data >> 40),
		TagID:   uint16(m.Data >> 24),
		BitRate: uint16(m.Data >> 8),
		Arg:     uint8(m.Data),
	}
}

// Transaction tracks one query's retransmission state (§4.1: "if the tag
// does not respond to the query, the reader re-transmits until it gets a
// response").
type Transaction struct {
	// Query being executed.
	Query Query
	// MaxAttempts bounds retransmissions.
	MaxAttempts int
	// Attempts made so far.
	Attempts int
	// Done reports a successful response.
	Done bool
}

// NewTransaction starts a transaction with the default retry budget.
func NewTransaction(q Query) *Transaction {
	return &Transaction{Query: q, MaxAttempts: 5}
}

// NextAttempt reports whether another attempt may be made and counts it.
func (t *Transaction) NextAttempt() bool {
	if t.Done || t.Attempts >= t.MaxAttempts {
		return false
	}
	t.Attempts++
	return true
}

// Complete marks the transaction finished.
func (t *Transaction) Complete() { t.Done = true }

// MonitorHelper wires a rate estimator to a medium: every delivered data
// or beacon frame from the helper station updates the estimate, mirroring
// the reader's monitor-mode view.
func MonitorHelper(m *wifi.Medium, helper *wifi.Station, est *RateEstimator) {
	m.AddListener(func(tx wifi.Transmission) {
		if tx.Collided || tx.Station != helper {
			return
		}
		switch tx.Frame.Header.Type {
		case wifi.TypeData, wifi.TypeBeacon:
			est.Observe(tx.End)
		}
	})
}

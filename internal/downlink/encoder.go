package downlink

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/wifi"
)

// Encoder plans the on-air schedule of a downlink message: a ‘1’ bit is a
// short Wi-Fi packet, a ‘0’ bit is a silence of equal duration (Fig. 7),
// all inside a CTS_to_SELF reservation so other Wi-Fi devices stay quiet
// during the silences. Messages longer than one 32 ms reservation are split
// across several (§4.1: "We can transmit more bits by splitting them
// across multiple CTS_to_SELF packets").
type Encoder struct {
	// BitDuration is the packet/silence slot length in seconds. 50 µs
	// yields 20 kbps; 100 µs, 10 kbps; 200 µs, 5 kbps.
	BitDuration float64
	// Rate of the marker packets (54 Mbps for the shortest airtime).
	Rate wifi.Rate
	// Guard is the lead time inside the reservation before the first
	// bit slot.
	Guard float64
	// OnError, when non-nil, receives failures that occur inside the
	// event-driven send schedule, where Send's error return has already
	// been consumed: the chunk index and the scheduling error. The send
	// is aborted (no further markers or chunks) either way.
	OnError func(chunk int, err error)
	// Impair, when non-nil, suppresses individual marker frames (query
	// corruption; core wires the fault injector here). A suppressed
	// marker leaves its bit slot silent, flipping that downlink bit at
	// the tag.
	Impair MarkerImpairment

	// marker is the ‘1’ marker's padding (see markerFrame), allocated
	// once and carried by every marker: shared and read-only, per
	// wifi.Frame.Payload.
	marker []byte
	met    encoderMetrics
}

// MarkerImpairment lets a fault layer suppress marker packets (see
// internal/faults). MarkerLost is asked once per planned marker with the
// chunk index and the marker's absolute on-air time; returning true drops
// it. Implementations must be deterministic and must draw only from their
// own randomness stream.
type MarkerImpairment interface {
	MarkerLost(chunk int, at float64) bool
}

// encoderMetrics holds the encoder's obs handles; the zero value means
// "not instrumented" (nil handles no-op).
type encoderMetrics struct {
	chunksPlanned     *obs.Counter
	chunksSent        *obs.Counter
	markersSent       *obs.Counter
	markersSuppressed *obs.Counter
	navGrants         *obs.Counter
	navErrors         *obs.Counter
	sendsAborted      *obs.Counter
	window            *obs.Timer
}

// Instrument registers the encoder's downlink accounting on r
// (downlink.* in the README's metric catalog): chunks planned and sent,
// marker packets placed, NAV grants consumed, mid-send scheduling errors
// and the resulting aborts, and the reservation-length distribution. A
// nil registry detaches the metrics.
func (e *Encoder) Instrument(r *obs.Registry) {
	e.met = encoderMetrics{
		chunksPlanned:     r.Counter("downlink.chunks_planned"),
		chunksSent:        r.Counter("downlink.chunks_sent"),
		markersSent:       r.Counter("downlink.markers_sent"),
		markersSuppressed: r.Counter("downlink.markers_suppressed"),
		navGrants:         r.Counter("downlink.nav_grants"),
		navErrors:         r.Counter("downlink.nav_errors"),
		sendsAborted:      r.Counter("downlink.sends_aborted"),
		window:            r.Timer("downlink.window_s"),
	}
}

// NewEncoder validates the bit duration against the shortest transmittable
// packet: the slot must fit a minimal frame at the chosen rate.
func NewEncoder(bitDuration float64) (*Encoder, error) {
	e := &Encoder{BitDuration: bitDuration, Rate: wifi.Rate54, Guard: 100e-6}
	if bitDuration <= 0 {
		return nil, fmt.Errorf("downlink: bit duration must be positive, got %v", bitDuration)
	}
	minimal := wifi.Frame{Header: wifi.Header{Type: wifi.TypeQoSNull, Addr1: wifi.BroadcastMAC}}
	if air := wifi.AirTime(minimal.Length(), e.Rate); air > bitDuration {
		return nil, fmt.Errorf("downlink: bit duration %v below minimum packet airtime %v",
			bitDuration, air)
	}
	return e, nil
}

// markerFrame returns the frame used as the ‘1’ marker, padded so its
// airtime fills the bit slot: the tag's energy detector must see presence
// for the whole bit period, and consecutive ‘1’ markers then look like one
// long packet ("longer packets can be intuitively thought of as multiple
// small packets sent back-to-back", §4.2).
func (e *Encoder) markerFrame() wifi.Frame {
	f := wifi.Frame{Header: wifi.Header{Type: wifi.TypeQoSNull, Addr1: wifi.BroadcastMAC}}
	// Pad until adding one more symbol's worth of bytes would overshoot
	// the slot.
	bytesPerSymbol := e.Rate.BitsPerSymbol() / 8
	n := 0
	for wifi.AirTime(f.Length()+n+bytesPerSymbol, e.Rate) <= e.BitDuration {
		n += bytesPerSymbol
	}
	if len(e.marker) != n {
		e.marker = make([]byte, n)
	}
	f.Payload = e.marker[:n:n]
	return f
}

// BitRate returns the effective downlink bit rate in bits/second.
func (e *Encoder) BitRate() float64 { return 1 / e.BitDuration }

// Chunk is one CTS_to_SELF reservation's worth of bits.
type Chunk struct {
	// Bits carried in this reservation.
	Bits []bool
	// Reservation is the NAV duration needed (guard + bits).
	Reservation float64
	// PacketOffsets are the start times of marker packets relative to
	// the start of the protected window (one per ‘1’ bit).
	PacketOffsets []float64
}

// Plan splits a bit sequence into reservation-sized chunks with marker
// packet schedules.
func (e *Encoder) Plan(bits []bool) []Chunk {
	if len(bits) == 0 {
		return nil
	}
	perChunk := int((wifi.MaxNAV - e.Guard) / e.BitDuration)
	if perChunk < 1 {
		perChunk = 1
	}
	var chunks []Chunk
	for start := 0; start < len(bits); start += perChunk {
		end := start + perChunk
		if end > len(bits) {
			end = len(bits)
		}
		part := bits[start:end]
		c := Chunk{
			Bits:        append([]bool(nil), part...),
			Reservation: e.Guard + float64(len(part))*e.BitDuration,
		}
		for i, b := range part {
			if b {
				c.PacketOffsets = append(c.PacketOffsets, e.Guard+float64(i)*e.BitDuration)
			}
		}
		chunks = append(chunks, c)
	}
	return chunks
}

// AirTimeTotal returns the total reserved airtime for a message's chunks —
// 4.0 ms for the 80-bit message at 50 µs bits plus guard (§4.1).
func AirTimeTotal(chunks []Chunk) float64 {
	var sum float64
	for _, c := range chunks {
		sum += c.Reservation
	}
	return sum
}

// Send transmits the chunks through the medium from the given station:
// each chunk enqueues a CTS_to_SELF and, once the NAV is granted, places
// the marker packets at their offsets. onDone is invoked with the protected
// window's absolute start time of each chunk as it is granted.
func (e *Encoder) Send(m *wifi.Medium, st *wifi.Station, chunks []Chunk, onWindow func(chunk int, start float64)) error {
	if len(chunks) == 0 {
		return fmt.Errorf("downlink: nothing to send")
	}
	e.met.chunksPlanned.Add(int64(len(chunks)))
	var sendChunk func(i int)
	sendChunk = func(i int) {
		c := chunks[i]
		st.OnNAVGranted = func(start, navEnd float64) {
			st.OnNAVGranted = nil
			e.met.navGrants.Inc()
			for _, off := range c.PacketOffsets {
				if e.Impair != nil && e.Impair.MarkerLost(i, start+off) {
					e.met.markersSuppressed.Inc()
					continue
				}
				if err := m.TransmitInNAV(st, e.markerFrame(), e.Rate, start+off); err != nil {
					// The closure runs long after Send returned, so the
					// error cannot use Send's return path: record it,
					// hand it to OnError, and abort the remaining
					// markers and chunks rather than panicking inside
					// the event loop.
					e.met.navErrors.Inc()
					e.met.sendsAborted.Inc()
					if e.OnError != nil {
						e.OnError(i, fmt.Errorf("downlink: NAV transmit: %w", err))
					}
					return
				}
				e.met.markersSent.Inc()
			}
			e.met.chunksSent.Inc()
			e.met.window.Observe(c.Reservation)
			if onWindow != nil {
				onWindow(i, start)
			}
			if i+1 < len(chunks) {
				// Queue the next chunk after this window ends.
				m.Engine().ScheduleAt(navEnd, func() { sendChunk(i + 1) })
			}
		}
		st.Enqueue(wifi.NewCTSToSelf(st.Addr, c.Reservation))
	}
	sendChunk(0)
	return nil
}

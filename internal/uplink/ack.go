package uplink

import (
	"errors"

	"repro/internal/csi"
)

// ACK detection (§4.1): "the Wi-Fi Backscatter tag can reduce the overhead
// of the ACK packet by dropping the preamble and the address fields, and
// transmitting a single bit message". The minimal distinguishable burst is
// the bare 13-bit Barker preamble itself: the reader already correlates
// with it on every channel, so detecting an ACK costs the tag 13 bit
// periods and the reader one correlation pass — no payload, no CRC.

// AckBits returns the bit sequence a tag transmits as an ACK burst.
func AckBits() []bool {
	bits := make([]bool, len(preambleLevels))
	for i, v := range preambleLevels {
		bits[i] = v > 0
	}
	return bits
}

// rankedScore returns the score both preamble detectors threshold: the
// tenth-best of the lanes rankLanes ranked, or the worst when fewer. A
// real burst lifts many channels at once, so a raised threshold on the
// tenth-best keeps noise on a few of the 90 channels from faking a
// detection (a noise-only correlation over 13 bins has σ ≈ 0.28, so
// single channels cross 0.5 routinely and about one in a hundred 0.72).
func rankedScore(stats []channelStats) float64 {
	return stats[min(9, len(stats)-1)].score
}

// ErrNoAck is an AwaitAck stream's error when its frame's first 13 bins
// hold no ACK burst: the frame was not decoded.
var ErrNoAck = errors.New("uplink: no ACK burst at the frame start")

// NewAckStream returns a stream for an ACK burst starting at start: a
// preamble-only CSI frame of 13 bins, which FlushAck reports on. Its first
// push past the burst scores it, as DetectAck does, and releases its
// arena; it decodes nothing and ticks no decode counter.
func (d *Decoder) NewAckStream(start float64) *StreamDecoder {
	nbits := len(preambleLevels)
	return &StreamDecoder{d: d, start: start, end: start + float64(nbits)*d.cfg.BitDuration,
		nbits: nbits, ack: true}
}

// AwaitAck gates the frame on an ACK burst at its start. Once a push
// passes the frame's first 13 bins (or at Flush, if none did), the stream
// scores the samples held, those of DetectAck's window at Start, with
// DetectAck's rule. If no burst is there, the stream fails with ErrNoAck
// and releases its arena without decoding; otherwise it goes on to
// decode the whole frame. The inventory's slots use it: a slot is decoded
// only when it is occupied.
func (sd *StreamDecoder) AwaitAck() { sd.ack = true }

// FlushAck closes an ACK stream and reports DetectAck's verdict: whether
// the burst was detected, and the best lane's correlation. A window with
// fewer than 13 measurements is not a detection.
func (sd *StreamDecoder) FlushAck() (bool, float64, error) {
	if _, err := sd.Flush(); err != nil {
		return false, 0, err
	}
	return sd.detected, sd.best, nil
}

// ackEnd returns the end of the burst window at the frame start.
func (sd *StreamDecoder) ackEnd() float64 {
	return sd.start + float64(len(preambleLevels))*sd.d.cfg.BitDuration
}

// checkAck runs the ACK check over the samples held, all of them inside
// the burst window. An ACK stream closes on it; an AwaitAck stream fails
// with ErrNoAck when it finds no burst.
func (sd *StreamDecoder) checkAck() error {
	sd.acked = true
	ok, best, err := sd.scoreAck()
	if err != nil {
		return err
	}
	sd.detected, sd.best = ok, best
	if sd.payloadLen == 0 {
		sd.decoded = true
		sd.release()
		return nil
	}
	if !ok {
		return ErrNoAck
	}
	return nil
}

// scoreAck is the burst test: the decoder's bin and score stages over the
// samples held, then the ranked lanes thresholded at the decoder's
// MinCorrelation, raised to at least 0.72. An AwaitAck frame has bins past
// the preamble, but they are empty here and only the first 13 are scored.
func (sd *StreamDecoder) scoreAck() (bool, float64, error) {
	if sd.n < len(preambleLevels) {
		// Too few measurements to cover the burst.
		return false, 0, nil
	}
	fs := getScratch(sd.nchan(), sd.n, sd.nbits)
	defer putScratch(fs)
	sd.bin(fs.off)
	stats := sd.scoreLanes(fs)
	if err := rankLanes(stats); err != nil {
		return false, 0, err
	}
	return rankedScore(stats) >= max(0.72, sd.d.cfg.MinCorrelation), stats[0].score, nil
}

// DetectAck reports whether an ACK burst starting at start is present in
// the series, along with the best correlation found. It is a push-all
// wrapper over NewAckStream, as every batch entry point is over its
// stream.
func (d *Decoder) DetectAck(s *csi.Series, start float64) (bool, float64, error) {
	sd := d.NewAckStream(start)
	if _, err := sd.pushAll(s); err != nil {
		return false, 0, err
	}
	return sd.FlushAck()
}

package wifi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// FrameType identifies the 802.11 frame kinds the simulator models.
type FrameType uint8

// Frame types. The values match 802.11 (type<<2 | subtype semantics are
// simplified to one enum).
const (
	TypeData FrameType = iota
	TypeBeacon
	TypeCTSToSelf
	TypeAck
	TypeQoSNull
	typeCount
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	switch t {
	case TypeData:
		return "Data"
	case TypeBeacon:
		return "Beacon"
	case TypeCTSToSelf:
		return "CTS-to-Self"
	case TypeAck:
		return "Ack"
	case TypeQoSNull:
		return "QoS-Null"
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// MAC is a 48-bit hardware address.
type MAC [6]byte

// String implements fmt.Stringer.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// BroadcastMAC is the all-ones broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Header is the simulator's 802.11 MAC header. DurationUS carries the NAV
// reservation in microseconds (meaningful for CTS_to_SELF).
type Header struct {
	Type       FrameType
	DurationUS uint16
	Addr1      MAC // receiver
	Addr2      MAC // transmitter
	Addr3      MAC // BSSID
	Seq        uint16
}

// headerLen is the serialized header size: 1 type + 2 duration + 3*6 addr +
// 2 seq.
const headerLen = 1 + 2 + 18 + 2

// fcsLen is the length of the trailing CRC-32 frame check sequence.
const fcsLen = 4

// Frame is a full MAC frame: header plus payload. Serialization appends a
// CRC-32 FCS; decoding verifies it.
type Frame struct {
	Header Header
	// Payload is the frame body. The traffic sources' generated frames
	// (CBR, saturated, Poisson, bursty, TCP segments and ACKs, beacons)
	// all carry one zeroed body per source, shared and read-only, with
	// cap == len. Do not write into it, and Decode only into a Frame that
	// owns its Payload: Decode reuses Payload's storage.
	Payload []byte
}

// Errors returned by Decode.
var (
	ErrFrameTooShort = errors.New("wifi: frame shorter than header+FCS")
	ErrBadFCS        = errors.New("wifi: FCS mismatch")
	ErrBadFrameType  = errors.New("wifi: unknown frame type")
)

// Serialize encodes the frame to wire format with a trailing FCS. The
// result is freshly allocated.
func (f *Frame) Serialize() []byte {
	out := make([]byte, headerLen+len(f.Payload)+fcsLen)
	out[0] = byte(f.Header.Type)
	binary.LittleEndian.PutUint16(out[1:], f.Header.DurationUS)
	copy(out[3:], f.Header.Addr1[:])
	copy(out[9:], f.Header.Addr2[:])
	copy(out[15:], f.Header.Addr3[:])
	binary.LittleEndian.PutUint16(out[21:], f.Header.Seq)
	copy(out[headerLen:], f.Payload)
	fcs := crc32.ChecksumIEEE(out[:headerLen+len(f.Payload)])
	binary.LittleEndian.PutUint32(out[headerLen+len(f.Payload):], fcs)
	return out
}

// Length returns the serialized length in bytes, used for airtime.
func (f *Frame) Length() int { return headerLen + len(f.Payload) + fcsLen }

// Decode parses wire bytes into the receiver, verifying the FCS. Following
// the gopacket DecodingLayer idiom, Decode overwrites the receiver in place
// (reusing Payload capacity when possible) rather than allocating a new
// frame.
func (f *Frame) Decode(data []byte) error {
	if len(data) < headerLen+fcsLen {
		return ErrFrameTooShort
	}
	body := data[:len(data)-fcsLen]
	want := binary.LittleEndian.Uint32(data[len(data)-fcsLen:])
	if crc32.ChecksumIEEE(body) != want {
		return ErrBadFCS
	}
	if FrameType(data[0]) >= typeCount {
		return ErrBadFrameType
	}
	f.Header.Type = FrameType(data[0])
	f.Header.DurationUS = binary.LittleEndian.Uint16(data[1:])
	copy(f.Header.Addr1[:], data[3:9])
	copy(f.Header.Addr2[:], data[9:15])
	copy(f.Header.Addr3[:], data[15:21])
	f.Header.Seq = binary.LittleEndian.Uint16(data[21:23])
	payload := body[headerLen:]
	f.Payload = append(f.Payload[:0], payload...)
	return nil
}

// NewCTSToSelf builds the CTS_to_SELF frame that reserves the medium for
// the given duration in seconds (§4.1). Durations above MaxNAV are clamped,
// matching the 802.11 limit the paper works around by splitting messages.
func NewCTSToSelf(self MAC, duration float64) *Frame {
	if duration < 0 {
		duration = 0
	}
	if duration > MaxNAV {
		duration = MaxNAV
	}
	return &Frame{Header: Header{
		Type:       TypeCTSToSelf,
		DurationUS: uint16(duration * 1e6),
		Addr1:      self,
		Addr2:      self,
	}}
}

// NAVDuration returns the reservation the frame announces, in seconds.
func (f *Frame) NAVDuration() float64 { return float64(f.Header.DurationUS) * 1e-6 }

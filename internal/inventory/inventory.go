// Package inventory implements multi-tag identification for Wi-Fi
// Backscatter. §2 of the paper notes that "in the presence of multiple
// Wi-Fi Backscatter tags in the vicinity, the interrogator can use
// protocols similar to EPC Gen-2 to identify these devices and then query
// each of them individually"; this package builds that protocol on top of
// the core system.
//
// The scheme is framed slotted ALOHA with Gen-2-style Q adaptation:
//
//  1. The reader broadcasts an INVENTORY query on the downlink carrying
//     the frame exponent Q and the uplink bit rate.
//  2. Every unidentified tag that decodes the query picks a random slot
//     in [0, 2^Q) and a random 16-bit handle, and backscatters the
//     handle (protected by a 6-bit CRC) in its slot.
//  3. The reader classifies each slot: empty (no preamble), single (CRC
//     passes — the handle is captured), or collision (preamble seen but
//     the CRC fails, because two tags' reflections superpose).
//  4. Each captured handle is acknowledged; the acknowledged tag responds
//     with its full 48-bit ID and leaves the population.
//  5. Q floats up on collisions and down on empties, and rounds repeat
//     until the population is drained or the round budget is spent.
package inventory

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/downlink"
	"repro/internal/reader"
	"repro/internal/rng"
	"repro/internal/tag"
	"repro/internal/units"
	"repro/internal/uplink"
)

// Config tunes the inventory round structure.
type Config struct {
	// InitialQ is the starting frame exponent (2^Q slots per round).
	InitialQ int
	// BitRate of the tags' uplink bursts, bits/second.
	BitRate float64
	// DownlinkBitDuration for reader→tag messages.
	DownlinkBitDuration float64
	// MaxRounds bounds the protocol.
	MaxRounds int
	// QStep is the Gen-2 Q-adjustment constant (typical 0.1–0.5).
	QStep float64
}

// DefaultConfig returns a configuration suitable for a handful of tags at
// short range.
func DefaultConfig() Config {
	return Config{
		InitialQ:            2,
		BitRate:             200,
		DownlinkBitDuration: 50e-6,
		MaxRounds:           8,
		QStep:               0.35,
	}
}

// handleBits is the number of payload bits in a slot burst: a 16-bit
// handle plus a 6-bit CRC.
const handleBits = 16 + 6

// Result summarizes one inventory run.
type Result struct {
	// Identified lists the captured tag IDs in discovery order.
	Identified []uint64
	// Rounds executed, counting failed ones whose query the medium never
	// granted.
	Rounds int
	// Slots consumed in total (a failed round consumes none).
	Slots int
	// Singles, Collisions, Empties classify the slots.
	Singles, Collisions, Empties int
	// Duration is the virtual time the inventory took, in seconds.
	Duration float64
}

// tagState tracks one participating tag.
type tagState struct {
	id         uint64
	idx        int // core tag index
	rnd        *rng.Stream
	identified bool
	slot       int
	handle     uint16
	heardQuery bool
}

// Inventory runs the protocol against the tags registered in the system.
type Inventory struct {
	sys  *core.System
	cfg  Config
	tags []*tagState
}

// New prepares an inventory over the given tag IDs. Tag 0 of the system is
// used for tagIDs[0]; additional tags are added to the channel at the
// given distances (one per extra ID).
func New(sys *core.System, tagIDs []uint64, distances []units.Meters, cfg Config) (*Inventory, error) {
	if len(tagIDs) == 0 {
		return nil, fmt.Errorf("inventory: no tags")
	}
	if len(distances) != len(tagIDs) {
		return nil, fmt.Errorf("inventory: %d distances for %d tags", len(distances), len(tagIDs))
	}
	if cfg.InitialQ < 0 || cfg.InitialQ > 8 {
		return nil, fmt.Errorf("inventory: InitialQ %d out of range", cfg.InitialQ)
	}
	if cfg.BitRate <= 0 || cfg.MaxRounds <= 0 {
		return nil, fmt.Errorf("inventory: invalid config %+v", cfg)
	}
	inv := &Inventory{sys: sys, cfg: cfg}
	for i, id := range tagIDs {
		idx := 0
		if i > 0 {
			var err error
			idx, err = sys.AddTag(distances[i])
			if err != nil {
				return nil, err
			}
		}
		inv.tags = append(inv.tags, &tagState{
			id:  id & ((1 << 48) - 1),
			idx: idx,
			rnd: rng.New(int64(id) ^ sys.Config().Seed ^ int64(i)<<17),
		})
	}
	sys.EnableTxLog()
	return inv, nil
}

// crc6 computes a 6-bit CRC (polynomial x⁶+x+1) over the 16 handle bits.
func crc6(handle uint16) uint8 {
	const poly = 0x43 // x^6 + x + 1 with the leading bit explicit
	crc := uint8(0x3F)
	for i := 15; i >= 0; i-- {
		bit := uint8(handle>>uint(i)) & 1
		top := (crc >> 5) & 1
		crc = (crc << 1) & 0x3F
		if top^bit == 1 {
			crc ^= poly & 0x3F
		}
	}
	return crc
}

// handleFrame builds the slot burst payload for a handle.
func handleFrame(handle uint16) []bool {
	bits := make([]bool, 0, handleBits)
	for i := 15; i >= 0; i-- {
		bits = append(bits, handle>>uint(i)&1 == 1)
	}
	crc := crc6(handle)
	for i := 5; i >= 0; i-- {
		bits = append(bits, crc>>uint(i)&1 == 1)
	}
	return bits
}

// parseHandle validates a decoded slot payload.
func parseHandle(bits []bool) (uint16, bool) {
	if len(bits) != handleBits {
		return 0, false
	}
	var handle uint16
	for _, b := range bits[:16] {
		handle <<= 1
		if b {
			handle |= 1
		}
	}
	var crc uint8
	for _, b := range bits[16:] {
		crc <<= 1
		if b {
			crc |= 1
		}
	}
	return handle, crc == crc6(handle)
}

// Run executes the inventory. Helper traffic must already be flowing so
// the reader has channel measurements to decode slots from.
func (inv *Inventory) Run() (*Result, error) {
	res := &Result{}
	startTime := inv.sys.Eng.Now()
	qfp := float64(inv.cfg.InitialQ)
	for round := 0; round < inv.cfg.MaxRounds && !inv.done(); round++ {
		res.Rounds++
		q := int(qfp + 0.5)
		if q < 0 {
			q = 0
		}
		if q > 8 {
			q = 8
		}
		nslots := 1 << uint(q)
		singles, collisions, empties, err := inv.round(res, nslots)
		if errors.Is(err, errNotGranted) {
			continue // the query never went on air: a failed round, no slots
		}
		if err != nil {
			return nil, err
		}
		res.Singles += singles
		res.Collisions += collisions
		res.Empties += empties
		res.Slots += nslots
		// Gen-2 Q adjustment.
		qfp += inv.cfg.QStep * float64(collisions)
		qfp -= inv.cfg.QStep * float64(empties)
		if qfp < 0 {
			qfp = 0
		}
		if qfp > 8 {
			qfp = 8
		}
	}
	res.Duration = inv.sys.Eng.Now() - startTime
	return res, nil
}

// done reports whether every tag is identified.
func (inv *Inventory) done() bool {
	for _, t := range inv.tags {
		if !t.identified {
			return false
		}
	}
	return true
}

// round runs one query + slot frame + acknowledgments.
func (inv *Inventory) round(res *Result, nslots int) (singles, collisions, empties int, err error) {
	sys := inv.sys
	// 1. Broadcast the inventory query.
	q := reader.Query{
		Command: reader.CmdInventory,
		BitRate: uint16(inv.cfg.BitRate),
		Arg:     uint8(nslots),
	}
	winStart, winDur, err := inv.sendDownlink(q.Encode())
	if err != nil {
		return 0, 0, 0, err
	}
	// 2. Every unidentified tag tries to decode the query and picks a
	// slot and handle.
	participating := 0
	for _, t := range inv.tags {
		t.heardQuery = false
		if t.identified {
			continue
		}
		wr, derr := sys.DecodeDownlinkWindow(winStart, winDur, inv.cfg.DownlinkBitDuration)
		if derr != nil || wr.Err != nil {
			continue
		}
		got := reader.DecodeQuery(wr.Message)
		if got.Command != reader.CmdInventory {
			continue
		}
		t.heardQuery = true
		t.slot = t.rnd.Intn(nslots)
		t.handle = uint16(t.rnd.Intn(1 << 16))
		participating++
	}
	// 3. The slot frame: each tag backscatters its handle in its slot.
	frameBitsPerSlot := 13 + handleBits + 13
	slotDur := float64(frameBitsPerSlot)/inv.cfg.BitRate + 0.1
	frameStart := sys.Eng.Now() + 0.05
	for _, t := range inv.tags {
		if t.identified || !t.heardQuery {
			continue
		}
		start := frameStart + float64(t.slot)*slotDur
		if _, err := sys.TransmitUplinkFrom(t.idx, tag.FrameBits(handleFrame(t.handle)), start, inv.cfg.BitRate); err != nil {
			return 0, 0, 0, err
		}
		// One modulator per tag: transmitting in a later slot replaces
		// the previous round's schedule, which has already played out.
	}
	// 4. Stream each slot as it arrives, and decode it after the frame.
	// Occupancy comes first, from the robust many-channel burst detector
	// on the slot's first 13 bins (AwaitAck): the best single channel
	// correlates with noise too easily, and misclassified empty slots
	// would drive the Q adaptation up forever. An empty slot's stream
	// fails with ErrNoAck and is never decoded.
	dec, err := sys.UplinkDecoder(inv.cfg.BitRate)
	if err != nil {
		return 0, 0, 0, err
	}
	slots := make([]*uplink.StreamDecoder, nslots)
	for slot := range slots {
		sd, err := dec.NewStream(frameStart+float64(slot)*slotDur, handleBits, uplink.StreamCSI)
		if err != nil {
			return 0, 0, 0, err
		}
		sd.AwaitAck()
		sd.DecodeAtFlush()
		sys.StreamTo(sd)
		slots[slot] = sd
	}
	sys.Run(frameStart + float64(nslots)*slotDur + 0.1)
	type capture struct {
		handle uint16
		slot   int
	}
	var captured []capture
	for slot, sd := range slots {
		r, derr := sd.Flush()
		if errors.Is(derr, uplink.ErrNoAck) {
			empties++
			continue
		}
		if derr != nil {
			return 0, 0, 0, derr
		}
		if handle, ok := parseHandle(r.Payload); ok {
			singles++
			captured = append(captured, capture{handle: handle, slot: slot})
		} else {
			collisions++
		}
	}
	// 5. Acknowledge each captured handle; the owning tag reports its ID.
	for _, c := range captured {
		owner := inv.ownerOf(c.handle, c.slot)
		if owner == nil {
			continue // a collision that happened to pass CRC
		}
		if err := inv.acknowledge(owner, res); err != nil {
			return 0, 0, 0, err
		}
	}
	return singles, collisions, empties, nil
}

// ownerOf finds the unidentified tag that transmitted the handle in slot.
func (inv *Inventory) ownerOf(handle uint16, slot int) *tagState {
	for _, t := range inv.tags {
		if !t.identified && t.heardQuery && t.handle == handle && t.slot == slot {
			return t
		}
	}
	return nil
}

// acknowledge runs the ACK(handle) → ID exchange for one tag.
func (inv *Inventory) acknowledge(t *tagState, res *Result) error {
	sys := inv.sys
	ack := reader.Query{
		Command: reader.CmdAckHandle,
		TagID:   t.handle,
		BitRate: uint16(inv.cfg.BitRate),
	}
	winStart, winDur, err := inv.sendDownlink(ack.Encode())
	if errors.Is(err, errNotGranted) {
		return nil // the ACK never went on air; the tag stays unidentified
	}
	if err != nil {
		return err
	}
	wr, derr := sys.DecodeDownlinkWindow(winStart, winDur, inv.cfg.DownlinkBitDuration)
	if derr != nil || wr.Err != nil {
		return nil // tag missed the ACK; it stays unidentified this round
	}
	got := reader.DecodeQuery(wr.Message)
	if got.Command != reader.CmdAckHandle || got.TagID != t.handle {
		return nil
	}
	// The tag reports its 48-bit ID, CRC-protected and scrambled.
	idBits := tag.Scramble(downlink.NewMessage(t.id).PayloadBits())
	start := sys.Eng.Now() + 0.02
	mod, err := sys.TransmitUplinkFrom(t.idx, tag.FrameBits(idBits), start, inv.cfg.BitRate)
	if err != nil {
		return err
	}
	dec, err := sys.UplinkDecoder(inv.cfg.BitRate)
	if err != nil {
		return err
	}
	sd, err := dec.NewStream(mod.Start(), downlink.PayloadBits, uplink.StreamCSI)
	if err != nil {
		return err
	}
	sd.DecodeAtFlush()
	r, err := sys.DecodeStream(sd, mod.End()+0.2)
	if err != nil {
		return err
	}
	// Traffic that stalled over the whole ID decodes to no payload.
	msg, perr := downlink.ParsePayload(tag.Scramble(r.Payload))
	if perr != nil || msg.Data != t.id {
		return nil // garbled or lost ID; retry next round
	}
	t.identified = true
	res.Identified = append(res.Identified, t.id)
	return nil
}

// errNotGranted is sendDownlink's error when the medium never granted the
// message's protected window: the message never went on air.
var errNotGranted = errors.New("inventory: downlink window never granted")

// sendDownlink transmits one downlink message and returns its protected
// window.
func (inv *Inventory) sendDownlink(msg downlink.Message) (start, dur float64, err error) {
	sys := inv.sys
	enc, err := downlink.NewEncoder(inv.cfg.DownlinkBitDuration)
	if err != nil {
		return 0, 0, err
	}
	enc.Instrument(sys.Metrics())
	chunks := enc.Plan(msg.Bits())
	if len(chunks) != 1 {
		return 0, 0, fmt.Errorf("inventory: message needs %d reservations", len(chunks))
	}
	granted := false
	if err := enc.Send(sys.Medium, sys.Reader, chunks, func(_ int, s float64) {
		start = s
		granted = true
	}); err != nil {
		return 0, 0, err
	}
	sys.Run(sys.Eng.Now() + 0.5)
	if !granted {
		return 0, 0, errNotGranted
	}
	return start, chunks[0].Reservation, nil
}

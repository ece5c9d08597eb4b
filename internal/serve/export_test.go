package serve

import (
	"net"

	"repro/internal/csi"
)

// Slots returns the session's measurement slots, so an external test can
// check their shape and that two live sessions share no slot memory. Read
// them only while nothing is pushed.
func Slots(s *Session) []csi.Measurement { return s.ring.slots }

// LineReaderCycle takes a pooled line reader for conn and releases it.
func LineReaderCycle(conn net.Conn) { newLineReader(conn).release() }

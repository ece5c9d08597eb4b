package wifi

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// TCPSource models a closed-loop TCP-like download over the Wi-Fi medium —
// the paper's dominant workloads (a 1 GB media file behind Fig. 3, a
// streaming session behind Fig. 18) are TCP, whose self-clocked dynamics
// shape packet timing very differently from open-loop injection:
// data segments flow from the sender, each delivered segment elicits a
// short ACK from the receiver station after a server-side delay, and the
// congestion window grows (slow start, then congestion avoidance) until a
// loss halves it.
//
// The model is deliberately Reno-shaped rather than byte-exact: the
// quantities that matter to Wi-Fi Backscatter are the packet sizes and
// timings on the air, which come from the window dynamics and the MAC.
type TCPSource struct {
	// Sender transmits data segments.
	Sender *Station
	// Receiver transmits the ACK stream (a distinct station contending
	// for the medium, as in real Wi-Fi).
	Receiver *Station
	// SegmentBytes is the data payload per segment (default 1448).
	SegmentBytes int
	// AckBytes is the ACK payload (default 52: TCP/IP headers).
	AckBytes int
	// ServerRTT is the wired-side round trip added before the sender
	// reacts to an ACK (default 20 ms).
	ServerRTT float64
	// LossProb is an application of random segment loss (congestion
	// elsewhere); the MAC's own losses also count.
	LossProb float64
	// InitialWindow segments (default 2), capped by MaxWindow
	// (default 64).
	InitialWindow, MaxWindow int
	// Until stops the transfer (0 = run forever).
	Until float64
	// Rnd drives loss draws.
	Rnd *rng.Stream

	cwnd      float64
	ssthresh  float64
	inFlight  int
	delivered int
	acked     int
	seg, ack  zeroBody
	// onServerAck is the ACK's arrival at the server, bound once so that
	// scheduling it forms no closure.
	onServerAck func()
}

// NewTCPSource validates and builds a TCP flow between two stations; tune
// the exported fields (LossProb, Until, window sizes) before Start.
func NewTCPSource(sender, receiver *Station) (*TCPSource, error) {
	t := &TCPSource{Sender: sender, Receiver: receiver}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *TCPSource) validate() error {
	if t.Sender == nil || t.Receiver == nil {
		return fmt.Errorf("wifi: TCPSource needs sender and receiver stations")
	}
	if t.Sender.medium != t.Receiver.medium {
		return fmt.Errorf("wifi: TCPSource stations must share a medium")
	}
	return nil
}

// Start begins the transfer; it returns an error when misconfigured.
func (t *TCPSource) Start() error {
	if err := t.validate(); err != nil {
		return err
	}
	if t.SegmentBytes <= 0 {
		t.SegmentBytes = 1448
	}
	if t.AckBytes <= 0 {
		t.AckBytes = 52
	}
	if t.ServerRTT <= 0 {
		t.ServerRTT = 0.02
	}
	if t.InitialWindow <= 0 {
		t.InitialWindow = 2
	}
	if t.MaxWindow <= 0 {
		t.MaxWindow = 64
	}
	if t.Rnd == nil {
		t.Rnd = rng.New(1)
	}
	t.cwnd = float64(t.InitialWindow)
	t.ssthresh = float64(t.MaxWindow)

	// Deliveries of data segments trigger receiver ACKs; deliveries of
	// ACKs open the window.
	t.Sender.OnDelivered = func(f Frame, end float64) {
		// Only this flow's segments count: the station may carry other
		// traffic.
		if f.Header.Type != TypeData || f.Header.Addr1 != t.Receiver.Addr ||
			len(f.Payload) != t.SegmentBytes {
			return
		}
		if t.Rnd.Float64() < t.LossProb {
			// Segment lost beyond the Wi-Fi hop: no ACK comes back;
			// halve the window (fast-retransmit-like reaction). The
			// lost segment leaves the window immediately.
			t.inFlight--
			t.onLoss()
			t.pump()
			return
		}
		t.Receiver.Enqueue(dataFrame(t.Sender.Addr, t.ack.of(t.AckBytes)))
	}
	t.Receiver.OnDelivered = func(f Frame, end float64) {
		if f.Header.Type != TypeData || f.Header.Addr1 != t.Sender.Addr ||
			len(f.Payload) != t.AckBytes {
			return
		}
		// The ACK reaches the server after the wired RTT; only then
		// does the segment leave the window (TCP's in-flight count is
		// unacknowledged data, not undelivered data) and the window
		// react.
		t.Sender.medium.eng.Schedule(t.ServerRTT, t.onServerAck)
	}
	t.onServerAck = func() {
		t.inFlight--
		t.onAck()
		t.pump()
	}
	t.pump()
	return nil
}

// onAck applies slow start / congestion avoidance.
func (t *TCPSource) onAck() {
	t.acked++
	if t.cwnd < t.ssthresh {
		t.cwnd++
	} else {
		t.cwnd += 1 / t.cwnd
	}
	if t.cwnd > float64(t.MaxWindow) {
		t.cwnd = float64(t.MaxWindow)
	}
}

// onLoss halves the window.
func (t *TCPSource) onLoss() {
	t.ssthresh = math.Max(2, t.cwnd/2)
	t.cwnd = t.ssthresh
}

// pump fills the window with data segments.
func (t *TCPSource) pump() {
	eng := t.Sender.medium.eng
	if t.Until > 0 && eng.Now() >= t.Until {
		return
	}
	for t.inFlight < int(t.cwnd) {
		ok := t.Sender.Enqueue(dataFrame(t.Receiver.Addr, t.seg.of(t.SegmentBytes)))
		if !ok {
			return
		}
		t.inFlight++
		t.delivered++
	}
}

// Window returns the current congestion window in segments.
func (t *TCPSource) Window() float64 { return t.cwnd }

// SegmentsSent returns the number of data segments handed to the MAC.
func (t *TCPSource) SegmentsSent() int { return t.delivered }

// AcksReceived returns the number of ACKs that have clocked the window.
func (t *TCPSource) AcksReceived() int { return t.acked }

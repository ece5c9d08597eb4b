package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/serve"
)

const (
	// serveLanes is the load generators of both serve workloads: two
	// goroutines, each with at most two connections open.
	serveLanes = 2
	// csiLaneRate paces each serve-csi lane at 50k measurement lines/s:
	// 100k/s in total, about 45% of the server's capacity on two cores,
	// or 100 real-time 1000 packet/s tag streams compressed 50×.
	csiLaneRate = 50000
	// csiOpenShare is the part of the serve-csi run spent open loop; the
	// rest measures capacity in a closed loop.
	csiOpenShare = 0.6
)

// serveConfig is the configuration the serve workloads run the server
// with: wbserved's defaults, deadlines on the injected clock.
func serveConfig(now func() time.Time) serve.Config {
	return serve.Config{IdleTimeout: 30 * time.Second, WriteTimeout: 10 * time.Second, Now: now}
}

// tcpServer is an in-process server on a loopback listener, reached by
// the same ServeTCP path as wbserved.
type tcpServer struct {
	srv  *serve.Server
	ln   net.Listener
	errc chan error
}

func startServer(now func() time.Time) (*tcpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &tcpServer{srv: serve.NewServer(serveConfig(now)), ln: ln, errc: make(chan error, 1)}
	go func() { s.errc <- s.srv.ServeTCP(ln) }()
	return s, nil
}

// stop closes the listener, waits for the accept loop to return, and
// drains the server.
func (s *tcpServer) stop() error {
	_ = s.ln.Close()
	if err := <-s.errc; err != nil {
		return fmt.Errorf("accept loop: %w", err)
	}
	return s.srv.Drain()
}

// serveStats are the server's counters the bench reports per layer.
func serveStats(st serve.Stats) []metric {
	return []metric{
		{name: "serve.stats.accepted", value: float64(st.Accepted), unit: "count"},
		{name: "serve.stats.rejected_overload", value: float64(st.RejectedOverload), unit: "count"},
		{name: "serve.stats.poisoned", value: float64(st.Poisoned), unit: "count"},
		{name: "serve.stats.queue_highwater", value: float64(st.QueueHighWater), unit: "count"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// measureServeCSI runs serve-csi: open-loop sessions of 3×30 CSI at a
// fixed offered rate, timed from the due time of each frame-closing line
// to the last bit line, then a closed loop that measures capacity.
func measureServeCSI(e *env, in *inputs, budget time.Duration, tr *tracer) (*outcome, error) {
	s, err := startServer(e.now)
	if err != nil {
		return nil, err
	}
	cfg := laneConfig{addr: s.ln.Addr().String(), caps: in.caps, now: e.now, sleep: e.sleep, tr: tr, rate: csiLaneRate}
	openDur := time.Duration(csiOpenShare * float64(budget))
	g0 := readGC()
	open := runLoad(cfg, serveLanes, openDur)
	g1 := readGC()
	cfg.rate = 0
	closed := runLoad(cfg, serveLanes, budget-openDur)
	st := s.srv.Stats()
	if err := s.stop(); err != nil {
		return nil, err
	}

	o := &outcome{stats: &st}
	o.absorb(&open.tally)
	o.absorb(&closed.tally)
	p50, tail := dist("ingest_to_bit", "_ms", "latency", "ms", open.lat)
	p50.speed, tail.speed = perTime, perTime
	o.primary = p50.value
	o.metrics = []metric{p50, tail,
		{name: "capacity_mps", key: "throughput_per_s", value: float64(closed.lines) / closed.elapsed.Seconds(), unit: "1/s", speed: perRate},
		{name: "alloc_bytes_per_frame", key: "alloc_bytes_per_op", value: perOp(g1.alloc-g0.alloc, len(open.lat)), unit: "B"},
	}
	lag50, lagTail := histDist("loadgen.lag", "_ms", "", "ms", &open.lag, 1e6)
	cl50, clTail := dist("loadgen.close_lag", "_ms", "", "ms", open.closeLag)
	o.layer = []metric{lag50, lagTail, cl50, clTail}
	return o, nil
}

// measureServeChurn runs serve-churn: a closed loop of short RSSI
// sessions, timed from hello sent to done received.
func measureServeChurn(e *env, in *inputs, budget time.Duration, tr *tracer) (*outcome, error) {
	s, err := startServer(e.now)
	if err != nil {
		return nil, err
	}
	cfg := laneConfig{addr: s.ln.Addr().String(), caps: in.caps, now: e.now, sleep: e.sleep, tr: tr}
	g0 := readGC()
	load := runLoad(cfg, serveLanes, budget)
	g1 := readGC()
	st := s.srv.Stats()
	if err := s.stop(); err != nil {
		return nil, err
	}

	o := &outcome{stats: &st}
	o.absorb(&load.tally)
	p50, tail := dist("session", "_ms", "latency", "ms", load.lat)
	p50.speed, tail.speed = perTime, perTime
	perSec := float64(load.attempted-load.failed) / load.elapsed.Seconds()
	o.primary, o.higherIsBetter = perSec, true
	o.metrics = []metric{p50, tail,
		{name: "sessions_per_s", key: "throughput_per_s", value: perSec, unit: "1/s", speed: perRate},
		{name: "alloc_bytes_per_session", key: "alloc_bytes_per_op", value: perOp(g1.alloc-g0.alloc, len(load.lat)), unit: "B"},
	}
	return o, nil
}

// perOp divides an allocation total over n operations.
func perOp(bytes uint64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(bytes) / float64(n)
}

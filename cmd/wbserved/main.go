// Command wbserved is the decode-serving daemon: it listens for
// line-protocol connections (see internal/serve's wire format), runs one
// streaming decoder per session under bounded admission and per-session
// backpressure, and emits decoded bits back to each client the moment
// its frame closes. SIGINT/SIGTERM trigger the graceful drain: the
// listener closes, in-frame sessions flush their partial frames exactly
// like a truncated batch trace would, and stragglers are force-aborted
// at the drain deadline. A listener that dies for any other reason is a
// daemon failure: wbserved logs it, drains, and exits non-zero so a
// supervisor restarts it.
//
// Usage:
//
//	wbserved -addr 127.0.0.1:4711 -max-sessions 64 -idle 30s
//	wbtrace > run.wbtrace
//	wbload -addr 127.0.0.1:4711 -n 64 -rate 100 -start 1.0 -payload 300 run.wbtrace
//
// Resilience knobs (DESIGN.md §13): -resume-ttl bounds how long a cut
// client's parked checkpoint survives (the server's maintenance loop
// evicts stale ones), -stall arms the stuck-stream watchdog, and
// -shed-threshold, a pressure in [0,1], turns on adaptive load shedding
// below the hard session cap; any other value is a usage error.
//
// With -metrics the daemon writes an internal/obs JSON snapshot of the
// serving counters (sessions accepted/rejected/poisoned, bits served,
// resume/watchdog/shed accounting, drain duration) after the drain
// completes.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4711", "listen address")
	maxSessions := flag.Int("max-sessions", serve.DefaultMaxSessions, "concurrent session cap (admission control)")
	buffer := flag.Int("buffer", serve.DefaultSessionBuffer, "per-session measurement buffer (slot ring size)")
	idle := flag.Duration("idle", 30*time.Second, "per-line read deadline; a silent session is flushed (0 disables)")
	writeTimeout := flag.Duration("write-timeout", 10*time.Second, "per-response write deadline (0 disables)")
	drain := flag.Duration("drain", serve.DefaultDrainTimeout, "hard deadline for the graceful drain")
	resumeTTL := flag.Duration("resume-ttl", serve.DefaultResumeTTL, "how long a parked resume checkpoint survives")
	maxParked := flag.Int("max-parked", serve.DefaultMaxParked, "parked resume checkpoint cap (oldest evicted beyond it)")
	stall := flag.Duration("stall", 0, "stuck-stream watchdog deadline (0 disables the watchdog)")
	shedThreshold := flag.Float64("shed-threshold", 0, "pressure in [0,1] from which low-priority streams are shed (0 = hard cap only)")
	metrics := flag.String("metrics", "", "write a metrics JSON snapshot to this file after draining")
	flag.Parse()
	if err := checkShedThreshold(*shedThreshold); err != nil {
		fmt.Fprintln(os.Stderr, "wbserved:", err)
		flag.Usage()
		os.Exit(2)
	}

	cfg := serve.Config{
		MaxSessions:   *maxSessions,
		SessionBuffer: *buffer,
		IdleTimeout:   *idle,
		WriteTimeout:  *writeTimeout,
		DrainTimeout:  *drain,
		ResumeTTL:     *resumeTTL,
		MaxParked:     *maxParked,
		StallTimeout:  *stall,
		ShedThreshold: *shedThreshold,
		Now:           time.Now,
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbserved:", err)
		os.Exit(1)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(cfg, l, *metrics, os.Stderr, stop); err != nil {
		fmt.Fprintln(os.Stderr, "wbserved:", err)
		os.Exit(1)
	}
}

// checkShedThreshold rejects a -shed-threshold that is not a pressure.
// The server reads any value outside (0,1] as "hard cap only", so a typo
// like 80 for 80% would silently turn early shedding off.
func checkShedThreshold(v float64) error {
	if !(v >= 0 && v <= 1) {
		return fmt.Errorf("-shed-threshold must be a pressure in [0,1], got %v", v)
	}
	return nil
}

// run serves on l until a stop signal arrives, then drains and (when
// asked) snapshots the metrics. The accept loop ending for any reason
// other than a stop signal — an accept error, or the listener closing
// under the daemon's feet — is reported as an error so main exits
// non-zero. Split from main so tests can drive it with their own
// listener and signal channel.
func run(cfg serve.Config, l net.Listener, metricsPath string, logw io.Writer, stop <-chan os.Signal) error {
	srv := serve.NewServer(cfg)
	eff := srv.Config()
	fmt.Fprintf(logw, "wbserved: listening on %s (max %d sessions, buffer %d)\n",
		l.Addr(), eff.MaxSessions, eff.SessionBuffer)
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeTCP(l) }()

	var serveErr error
	select {
	case sig := <-stop:
		fmt.Fprintf(logw, "wbserved: %v: draining\n", sig)
		_ = l.Close()
		serveErr = <-errc
	case serveErr = <-errc:
		// Nobody asked the daemon to stop: the listener died on its own.
		// ServeTCP maps a closed listener to nil, so wrap that case too —
		// a silently vanished listener must not exit zero.
		_ = l.Close()
		if serveErr == nil {
			serveErr = fmt.Errorf("listener on %s closed unexpectedly", l.Addr())
		} else {
			serveErr = fmt.Errorf("listener on %s died: %w", l.Addr(), serveErr)
		}
		fmt.Fprintf(logw, "wbserved: %v: draining\n", serveErr)
	}
	drainErr := srv.Drain()
	st := srv.Stats()
	fmt.Fprintf(logw, "wbserved: drained in %.3fs: %d sessions completed, %d poisoned, %d aborted, %d bits served\n",
		st.DrainSeconds, st.Completed, st.Poisoned, st.Aborted, st.BitsServed)
	if metricsPath != "" {
		if err := writeMetrics(srv, metricsPath); err != nil {
			return err
		}
	}
	if serveErr != nil {
		return serveErr
	}
	return drainErr
}

// writeMetrics publishes the server counters into a fresh obs registry
// and snapshots it as JSON.
func writeMetrics(srv *serve.Server, path string) error {
	reg := obs.NewRegistry()
	srv.PublishMetrics(reg)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

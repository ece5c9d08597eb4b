package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestRunServesAndDrains drives the daemon loop end to end: serve a
// session, deliver a stop signal mid-stream, and verify the graceful
// drain gives the client its final line, run returns clean, and the
// metrics snapshot lands on disk.
func TestRunServesAndDrains(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	stop := make(chan os.Signal, 1)
	var logw strings.Builder
	done := make(chan error, 1)
	cfg := serve.Config{DrainTimeout: 5 * time.Second, Now: time.Now}
	go func() { done <- run(cfg, l, metrics, &logw, stop) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := serve.AppendHello(nil, serve.SessionParams{
		BitRate: 100, Start: 1.0, PayloadLen: 8, Antennas: 2, Subchannels: 4,
	})
	if _, err := conn.Write(append(hello, '\n')); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatal("no response to hello")
	}
	if r, err := serve.ParseResponse(sc.Bytes()); err != nil || r.Kind != serve.RespOK {
		t.Fatalf("hello answered %+v, %v", r, err)
	}
	// A few in-frame measurements, then go mute: the drain must flush us.
	for i := 0; i < 40; i++ {
		line := "m " + "1.0" + strings.Repeat(" 10", 2+2*4) + "\n"
		if _, err := conn.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
	}
	stop <- os.Interrupt
	final := false
	for sc.Scan() {
		if r, err := serve.ParseResponse(sc.Bytes()); err == nil &&
			(r.Kind == serve.RespDone || r.Kind == serve.RespError) {
			final = true
		}
	}
	if !final {
		t.Error("drained session got no final line")
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	snap, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	for _, name := range []string{"serve.sessions.accepted", "serve.bits_served", "serve.drain.seconds"} {
		if !strings.Contains(string(snap), name) {
			t.Errorf("metrics snapshot missing %s", name)
		}
	}
	if !strings.Contains(logw.String(), "draining") {
		t.Errorf("log missing the drain notice: %q", logw.String())
	}
}

// TestRunListenerDeath pins the exit-status contract: a stop signal is
// the one clean way down; the listener dying for any other reason makes
// run return an error (so main exits non-zero and a supervisor
// restarts the daemon), after logging and draining.
func TestRunListenerDeath(t *testing.T) {
	cases := []struct {
		name string
		kill func(l net.Listener, stop chan os.Signal)
		// wantErr is a substring the returned error must carry; empty
		// means run must return nil.
		wantErr string
	}{
		{
			name: "stop signal exits clean",
			kill: func(l net.Listener, stop chan os.Signal) { stop <- os.Interrupt },
		},
		{
			name:    "externally closed listener is a daemon failure",
			kill:    func(l net.Listener, stop chan os.Signal) { _ = l.Close() },
			wantErr: "closed unexpectedly",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan os.Signal, 1)
			var logw strings.Builder
			done := make(chan error, 1)
			cfg := serve.Config{DrainTimeout: time.Second, Now: time.Now}
			go func() { done <- run(cfg, l, "", &logw, stop) }()
			tc.kill(l, stop)
			select {
			case err := <-done:
				if tc.wantErr == "" {
					if err != nil {
						t.Fatalf("run: %v", err)
					}
				} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("run returned %v, want an error containing %q", err, tc.wantErr)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run did not return")
			}
			if !strings.Contains(logw.String(), "draining") {
				t.Errorf("log missing the drain notice: %q", logw.String())
			}
		})
	}
}

// TestRunLogsEffectiveConfig pins the startup line to the server's
// resolved configuration: a zero -max-sessions or -buffer logs the
// defaults the server actually runs with, not 0.
func TestRunLogsEffectiveConfig(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan os.Signal, 1)
	stop <- os.Interrupt
	var logw strings.Builder
	if err := run(serve.Config{Now: time.Now}, l, "", &logw, stop); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := fmt.Sprintf("(max %d sessions, buffer %d)", serve.DefaultMaxSessions, serve.DefaultSessionBuffer)
	if !strings.Contains(logw.String(), want) {
		t.Errorf("startup line does not report %q: %q", want, logw.String())
	}
}

// TestCheckShedThreshold pins the -shed-threshold usage check: a
// pressure in [0,1] passes (0 keeps the hard cap only), anything else —
// including a percentage typed for a fraction — is refused.
func TestCheckShedThreshold(t *testing.T) {
	for _, tc := range []struct {
		v  float64
		ok bool
	}{
		{0, true},
		{0.005, true},
		{0.8, true},
		{1, true},
		{80, false},
		{1.0001, false},
		{-0.1, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		if err := checkShedThreshold(tc.v); (err == nil) != tc.ok {
			t.Errorf("checkShedThreshold(%v) = %v, want ok=%v", tc.v, err, tc.ok)
		}
	}
}

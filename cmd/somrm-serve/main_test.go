package main

import (
	"bytes"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestRunBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-nope"}, &sb, nil); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"extra"}, &sb, nil); err == nil || !strings.Contains(err.Error(), "unexpected argument") {
		t.Errorf("positional argument accepted: %v", err)
	}
	if err := run([]string{"-addr", "999.999.999.999:0"}, &sb, nil); err == nil {
		t.Error("unlistenable address accepted")
	}
}

// bootServe starts run() with the given extra flags on an ephemeral port
// and returns the base URL plus a stop function that SIGTERMs the server
// and waits for a clean exit.
func bootServe(t *testing.T, extra ...string) (string, func()) {
	t.Helper()
	var logbuf bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, extra...)
	go func() { done <- run(args, &logbuf, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v\n%s", err, logbuf.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	stop := func() {
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v\n%s", err, logbuf.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down on SIGTERM")
		}
	}
	return "http://" + addr, stop
}

// TestPprofGate proves the profiling endpoints are absent by default and
// present with -pprof: exposing CPU profiles must be an explicit opt-in.
func TestPprofGate(t *testing.T) {
	// Default: /debug/pprof/ is unrouted, so the probe 404s instantly.
	base, stop := bootServe(t)
	resp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof profile without -pprof: status %d, want 404", resp.StatusCode)
	}
	stop()

	// With the flag: the index and a 1-second CPU profile both serve.
	base, stop = bootServe(t, "-pprof")
	defer stop()
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	var index bytes.Buffer
	index.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(index.String(), "profile") {
		t.Errorf("pprof index with -pprof: status %d body %.120s", resp.StatusCode, index.String())
	}
	resp, err = http.Get(base + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	prof.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || prof.Len() == 0 {
		t.Errorf("pprof profile with -pprof: status %d, %d bytes", resp.StatusCode, prof.Len())
	}
	// The API itself still works behind the outer mux.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz behind pprof mux: %d", hresp.StatusCode)
	}
}

// TestRunServeAndSignalShutdown boots the real binary entry point on an
// ephemeral port, solves once over HTTP, and shuts it down via SIGTERM.
func TestRunServeAndSignalShutdown(t *testing.T) {
	var logbuf bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, &logbuf, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited early: %v\n%s", err, logbuf.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	base := "http://" + addr
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}

	body := `{"model": {"states": 2,
	  "transitions": [{"from":0,"to":1,"rate":2},{"from":1,"to":0,"rate":3}],
	  "rates": [1.5,-0.5], "variances": [0.2,1], "initial": [1,0]},
	  "t": 1, "order": 3}`
	sresp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(sresp.Body); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", sresp.StatusCode, out.String())
	}
	if !strings.Contains(out.String(), `"moments"`) {
		t.Errorf("solve response missing moments: %s", out.String())
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v\n%s", err, logbuf.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
	if !strings.Contains(logbuf.String(), "shutting down") {
		t.Errorf("shutdown not logged:\n%s", logbuf.String())
	}
}

func TestRunClusterFlagValidation(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-peers", "http://a:1"}, &sb, nil); err == nil || !strings.Contains(err.Error(), "-self") {
		t.Errorf("-peers without -self accepted: %v", err)
	}
	if err := run([]string{"-peer-secret", "s"}, &sb, nil); err == nil || !strings.Contains(err.Error(), "-self") {
		t.Errorf("-peer-secret without -self accepted: %v", err)
	}
}

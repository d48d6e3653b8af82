package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestMembershipProbeFlipsLiveness(t *testing.T) {
	var bDown atomic.Bool
	probe := func(ctx context.Context, url string) error {
		if url == "http://b" && bDown.Load() {
			return errors.New("probe: down")
		}
		return nil
	}
	m := NewMembership([]string{"http://a", "http://b"}, probe, 5*time.Millisecond)
	m.Start()
	defer m.Stop()

	// Peers start optimistically alive, before any probe has run.
	if !m.Alive("http://a") || !m.Alive("http://b") {
		t.Fatal("peers must start alive")
	}
	if got := m.AliveCount(); got != 2 {
		t.Fatalf("AliveCount = %d, want 2", got)
	}

	bDown.Store(true)
	waitFor(t, "probe to mark b down", func() bool { return !m.Alive("http://b") })
	if !m.Alive("http://a") {
		t.Error("a must stay alive while b is down")
	}

	bDown.Store(false)
	waitFor(t, "probe to restore b", func() bool { return m.Alive("http://b") })
}

func TestMembershipManualMarks(t *testing.T) {
	m := NewMembership([]string{"http://a"}, nil, 0)

	m.MarkDown("http://a")
	if m.Alive("http://a") {
		t.Error("MarkDown must take effect")
	}
	m.MarkAliveSince("http://a", m.Stamp("http://a"))
	if !m.Alive("http://a") {
		t.Error("MarkAliveSince with a current stamp must take effect")
	}

	// Unknown peers are never adopted: the peer set is static.
	m.MarkAliveSince("http://ghost", m.Stamp("http://ghost"))
	if m.Alive("http://ghost") {
		t.Error("unknown peer must stay dead")
	}
	if got := len(m.Peers()); got != 1 {
		t.Errorf("Peers() has %d entries, want 1", got)
	}

	// Stop without Start must not hang.
	m.Stop()
}

// TestMembershipStaleSuccessCannotOverrideMarkDown pins the same
// generation rule for routed requests: an exchange stamped before a
// concurrent MarkDown that then succeeds is stale evidence and must
// leave the peer down, while a success stamped after the MarkDown
// restores it.
func TestMembershipStaleSuccessCannotOverrideMarkDown(t *testing.T) {
	m := NewMembership([]string{"http://a", "http://b"}, nil, 0)

	stamp := m.Stamp("http://a") // a request to a starts
	m.MarkDown("http://a")       // another request finds a dead meanwhile
	m.MarkAliveSince("http://a", stamp)
	if m.Alive("http://a") {
		t.Fatal("stale success resurrected a peer marked down mid-flight")
	}
	if got := m.AliveCount(); got != 1 {
		t.Fatalf("AliveCount = %d, want 1", got)
	}

	m.MarkAliveSince("http://a", m.Stamp("http://a"))
	if !m.Alive("http://a") {
		t.Fatal("fresh success must restore the peer")
	}
}

// TestMembershipStaleProbeCannotOverrideDirectObservation pins the
// generation stamping: a probe that was already in flight when a request
// marked the peer down must discard its (stale) success instead of
// resurrecting the peer; the next full probe round flips state again.
func TestMembershipStaleProbeCannotOverrideDirectObservation(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	probe := func(ctx context.Context, url string) error {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return nil
	}
	m := NewMembership([]string{"http://a"}, probe, time.Hour)

	done := make(chan struct{})
	go func() { m.probeAll(); close(done) }()
	<-entered
	// A request hits a transport failure while the probe is mid-flight.
	m.MarkDown("http://a")
	close(release)
	<-done
	if m.Alive("http://a") {
		t.Fatal("stale probe success resurrected a peer a request just found dead")
	}

	// A probe that starts after the direct observation is fresher and may
	// flip the peer back.
	m.probeAll()
	if !m.Alive("http://a") {
		t.Fatal("fresh successful probe must restore the peer")
	}
}

func TestMembershipStopTerminatesProbeLoop(t *testing.T) {
	var probes atomic.Int64
	probe := func(ctx context.Context, url string) error {
		probes.Add(1)
		return nil
	}
	m := NewMembership([]string{"http://a"}, probe, time.Millisecond)
	m.Start()
	waitFor(t, "first probe", func() bool { return probes.Load() > 0 })
	m.Stop()
	at := probes.Load()
	time.Sleep(20 * time.Millisecond)
	if got := probes.Load(); got != at {
		t.Errorf("probe loop still running after Stop (%d -> %d probes)", at, got)
	}
	m.Stop() // idempotent
}

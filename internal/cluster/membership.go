package cluster

import (
	"context"
	"sort"
	"sync"
	"time"
)

// ProbeFunc checks one peer's liveness; nil error means alive. The
// cluster wires this to the peer's GET /healthz (a draining replica
// answers 503 there, so drains read as "down" and traffic routes around
// them while their in-flight work finishes).
type ProbeFunc func(ctx context.Context, url string) error

// Membership tracks replica liveness for a static peer list. Peers start
// alive (optimistic, so the cluster routes before the first probe round)
// and are flipped by periodic health probes; callers may also mark a peer
// down directly on a transport-level failure for faster rerouting — the
// next successful probe or exchange restores it.
type Membership struct {
	mu    sync.Mutex
	alive map[string]bool
	// gen counts direct observations (MarkDown/MarkAliveSince) per peer. A
	// probe — or a routed request, via Stamp and MarkAliveSince —
	// snapshots it before its round-trip and discards its success if the
	// count moved while it was in flight: the direct observation is
	// fresher, and a slow success must not resurrect a peer that a
	// request just found dead (or a slow probe failure bury one).
	gen map[string]uint64

	probe    ProbeFunc
	interval time.Duration
	timeout  time.Duration

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewMembership builds a table over peers. probe may be nil (liveness
// then changes only through MarkDown/MarkAliveSince); interval 0 selects
// 2s.
func NewMembership(peers []string, probe ProbeFunc, interval time.Duration) *Membership {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	m := &Membership{
		alive:    make(map[string]bool, len(peers)),
		gen:      make(map[string]uint64, len(peers)),
		probe:    probe,
		interval: interval,
		timeout:  interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, p := range peers {
		if p != "" {
			m.alive[p] = true
		}
	}
	return m
}

// Start launches the background probe loop; it is a no-op without a probe
// function or when already started. Pair with Stop.
func (m *Membership) Start() {
	m.startOnce.Do(func() {
		if m.probe == nil {
			close(m.done)
			return
		}
		go m.loop()
	})
}

// Stop terminates the probe loop and waits for it to exit.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.Start() // ensure done is closed even if Start was never called
	<-m.done
}

func (m *Membership) loop() {
	defer close(m.done)
	t := time.NewTicker(m.interval)
	defer t.Stop()
	m.probeAll()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			m.probeAll()
		}
	}
}

// probeAll probes every peer concurrently under one deadline.
func (m *Membership) probeAll() {
	ctx, cancel := context.WithTimeout(context.Background(), m.timeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range m.Peers() {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			m.mu.Lock()
			start := m.gen[p]
			m.mu.Unlock()
			err := m.probe(ctx, p)
			m.mu.Lock()
			if m.gen[p] == start {
				m.alive[p] = err == nil
			}
			m.mu.Unlock()
		}(p)
	}
	wg.Wait()
}

// Alive reports whether peer is currently believed live. Unknown peers
// are dead.
func (m *Membership) Alive(peer string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alive[peer]
}

// MarkDown records a peer as dead (called on transport-level failures so
// routing reacts before the next probe round).
func (m *Membership) MarkDown(peer string) {
	m.mu.Lock()
	if _, known := m.alive[peer]; known {
		m.alive[peer] = false
		m.gen[peer]++
	}
	m.mu.Unlock()
}

// Stamp returns peer's observation generation, for a later
// MarkAliveSince by an exchange that starts now.
func (m *Membership) Stamp(peer string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen[peer]
}

// MarkAliveSince records a peer as live after a successful exchange that
// began at generation stamp (see Stamp), unless a direct observation
// landed while the exchange was in flight: a response from before a
// concurrent MarkDown is stale evidence and must not resurrect the peer.
func (m *Membership) MarkAliveSince(peer string, stamp uint64) {
	m.mu.Lock()
	if _, known := m.alive[peer]; known && m.gen[peer] == stamp {
		m.alive[peer] = true
		m.gen[peer]++
	}
	m.mu.Unlock()
}

// Peers returns every known peer in sorted order, dead or alive.
func (m *Membership) Peers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	peers := make([]string, 0, len(m.alive))
	for p := range m.alive {
		peers = append(peers, p)
	}
	sort.Strings(peers)
	return peers
}

// AliveCount returns how many peers are currently believed live.
func (m *Membership) AliveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, ok := range m.alive {
		if ok {
			n++
		}
	}
	return n
}

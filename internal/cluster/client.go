package cluster

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"somrm/internal/resilience"
	"somrm/internal/server"
	"somrm/internal/spec"
)

// Client routes solver requests across a cluster: each request's model is
// hashed canonically (spec.Hash), the consistent-hash ring names the
// owning replica, and the request goes there first — so every replica's
// result and prepared-model caches serve a stable shard of the keyspace.
// When the owner is down, tripped, or shedding, the client fails over
// along the ring successors; solves are deterministic and idempotent, so
// a failover result is bitwise identical to the owner's.
//
// Each peer gets its own server.Client (retry/backoff stack) with a
// per-peer circuit breaker from a shared registry: one dead replica fails
// fast without poisoning the healthy peers' windows.
//
// A single-URL Client collapses to exactly one server.Client — today's
// single-server behavior, bit for bit.
type Client struct {
	ring    *Ring
	members *Membership
	reg     *resilience.BreakerRegistry
	clients map[string]*server.Client

	// single short-circuits routing for one-URL clusters.
	single *server.Client
}

// Option configures a cluster Client.
type Option func(*clientConfig)

type clientConfig struct {
	vnodes        int
	probeInterval time.Duration
	clientOpts    []server.ClientOption
	breakerCfg    resilience.BreakerConfig
}

// WithClientOptions forwards server.ClientOptions (retry policy, budget,
// transport) to every per-peer client.
func WithClientOptions(opts ...server.ClientOption) Option {
	return func(c *clientConfig) { c.clientOpts = append(c.clientOpts, opts...) }
}

// WithVirtualNodes overrides the ring's virtual-node count (0 keeps
// DefaultVirtualNodes).
func WithVirtualNodes(n int) Option {
	return func(c *clientConfig) { c.vnodes = n }
}

// WithProbeInterval enables background /healthz probing of the peers at
// the given interval (0, the default, disables it: liveness then updates
// only from request outcomes, which suits one-shot CLI use).
func WithProbeInterval(d time.Duration) Option {
	return func(c *clientConfig) { c.probeInterval = d }
}

// WithPeerBreakerConfig overrides the per-peer circuit breaker
// configuration (zero fields keep the resilience defaults).
func WithPeerBreakerConfig(cfg resilience.BreakerConfig) Option {
	return func(c *clientConfig) { c.breakerCfg = cfg }
}

// NewClient builds a cluster client over the given replica base URLs.
func NewClient(urls []string, opts ...Option) *Client {
	var cfg clientConfig
	for _, o := range opts {
		o(&cfg)
	}
	ring := NewRing(urls, cfg.vnodes)
	nodes := ring.Nodes()
	c := &Client{
		ring:    ring,
		reg:     resilience.NewBreakerRegistry(cfg.breakerCfg),
		clients: make(map[string]*server.Client, len(nodes)),
	}
	for _, u := range nodes {
		perPeer := append(append([]server.ClientOption(nil), cfg.clientOpts...),
			server.WithSharedBreaker(c.reg.For(u)))
		c.clients[u] = server.NewClient(u, perPeer...)
	}
	if len(nodes) == 1 {
		c.single = c.clients[nodes[0]]
	}
	var probe ProbeFunc
	if cfg.probeInterval > 0 {
		probe = func(ctx context.Context, url string) error {
			return c.clients[url].Health(ctx)
		}
	}
	c.members = NewMembership(nodes, probe, cfg.probeInterval)
	if probe != nil {
		c.members.Start()
	}
	return c
}

// Close stops the background health probing, if enabled.
func (c *Client) Close() {
	c.members.Stop()
}

// Ring exposes the client's placement ring (tests and diagnostics).
func (c *Client) Ring() *Ring { return c.ring }

// BreakerStates returns each peer's circuit-breaker state keyed by URL.
func (c *Client) BreakerStates() map[string]string { return c.reg.States() }

// specHashHex canonically hashes a request's model — the routing key.
func specHashHex(m *spec.Model) (string, error) {
	if m == nil {
		return "", errors.New("cluster: missing model")
	}
	h, err := m.Hash()
	if err != nil {
		return "", fmt.Errorf("cluster: unhashable model: %w", err)
	}
	return hex.EncodeToString(h[:]), nil
}

// candidates returns every replica in failover order for a routing key:
// ring order starting at the owner, live replicas first. Dead-marked
// replicas stay at the tail rather than being skipped — a stale "down"
// must never make a key unreachable.
func (c *Client) candidates(key string) []string {
	succ := c.ring.Successors(key, len(c.clients))
	ordered := make([]string, 0, len(succ))
	var dead []string
	for _, u := range succ {
		if c.members.Alive(u) {
			ordered = append(ordered, u)
		} else {
			dead = append(dead, u)
		}
	}
	return append(ordered, dead...)
}

// failoverWorthy reports whether an error from one replica justifies
// trying the next: transport-level failures, 503s and truncated bodies
// (marked transient by the inner client), breaker fail-fasts, exhausted
// retry budgets, and 5xx responses. 4xx responses are deterministic —
// every replica would answer the same — and are returned immediately.
func failoverWorthy(err error) bool {
	if resilience.IsTransient(err) ||
		errors.Is(err, resilience.ErrBreakerOpen) ||
		errors.Is(err, resilience.ErrBudgetExhausted) {
		return true
	}
	var apiErr *server.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode >= 500
}

// connectionError reports whether err was a transport-level failure (no
// HTTP response at all) — the signal for marking a peer down immediately.
func connectionError(err error) bool {
	var apiErr *server.APIError
	return resilience.IsTransient(err) && !errors.As(err, &apiErr)
}

// ErrNoReplicas reports a cluster client whose ring holds zero replica
// URLs (an empty or all-blank server list); no request can be routed.
var ErrNoReplicas = errors.New("cluster: no replica URLs configured")

// route runs op against each candidate replica for key until one
// succeeds or an error is deemed deterministic.
func (c *Client) route(ctx context.Context, key string, op func(cl *server.Client) error) error {
	cands := c.candidates(key)
	if len(cands) == 0 {
		return ErrNoReplicas
	}
	var lastErr error
	for _, peer := range cands {
		stamp := c.members.Stamp(peer)
		err := op(c.clients[peer])
		if err == nil {
			c.members.MarkAliveSince(peer, stamp)
			return nil
		}
		if connectionError(err) {
			c.members.MarkDown(peer)
		}
		if ctx.Err() != nil || !failoverWorthy(err) {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// Solve routes one solve to its owning replica, failing over along the
// ring. With a single configured URL it is exactly server.Client.Solve.
func (c *Client) Solve(ctx context.Context, req *server.SolveRequest) (*server.SolveResponse, error) {
	if c.single != nil {
		return c.single.Solve(ctx, req)
	}
	key, err := specHashHex(req.Model)
	if err != nil {
		return nil, err
	}
	var resp *server.SolveResponse
	if err := c.route(ctx, key, func(cl *server.Client) error {
		var opErr error
		resp, opErr = cl.Solve(ctx, req)
		return opErr
	}); err != nil {
		return nil, err
	}
	return resp, nil
}

// SolveBatch routes one batch (one model, many grids) to its owning
// replica, failing over along the ring.
func (c *Client) SolveBatch(ctx context.Context, req *server.BatchRequest) (*server.BatchResponse, error) {
	if c.single != nil {
		return c.single.SolveBatch(ctx, req)
	}
	key, err := specHashHex(req.Model)
	if err != nil {
		return nil, err
	}
	var resp *server.BatchResponse
	if err := c.route(ctx, key, func(cl *server.Client) error {
		var opErr error
		resp, opErr = cl.SolveBatch(ctx, req)
		return opErr
	}); err != nil {
		return nil, err
	}
	return resp, nil
}

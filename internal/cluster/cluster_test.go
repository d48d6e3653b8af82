package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"somrm/internal/resilience"
	"somrm/internal/server"
	"somrm/internal/spec"
	"somrm/internal/testutil"
)

// testSpec returns a small two-state model whose recovery rate varies
// with k, giving distinct routing keys per k.
func testSpec(k int) *spec.Model {
	return &spec.Model{
		States: 2,
		Transitions: []spec.Transition{
			{From: 0, To: 1, Rate: 2},
			{From: 1, To: 0, Rate: 3 + float64(k)/7},
		},
		Rates:     []float64{1.5, -0.5},
		Variances: []float64{0.2, 1},
		Initial:   []float64{1, 0},
	}
}

// refMoments computes the core solver's answer for testSpec(k) at time t —
// the bitwise ground truth every replica must reproduce.
func refMoments(t *testing.T, k int, at float64, order int) []float64 {
	t.Helper()
	model, err := testSpec(k).Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.AccumulatedRewardAt([]float64{at}, order, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Moments
}

func assertBitwise(t *testing.T, got, want []float64, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d moments, want %d", context, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Errorf("%s: moment %d = %x, want %x (not bitwise identical)",
				context, j, got[j], want[j])
		}
	}
}

// fastPeerOpts keeps per-peer clients snappy under test: two attempts
// with millisecond backoff instead of the production 50ms base.
func fastPeerOpts() []server.ClientOption {
	return []server.ClientOption{
		server.WithRetryPolicy(resilience.RetryPolicy{
			MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
		}),
	}
}

// testCluster boots n replicas that know each other's real URLs. The
// chicken-and-egg (peer URLs are needed to build a node, the node handler
// is needed to serve the URL) is broken with unstarted httptest servers:
// their listener addresses exist before any handler is attached.
type testCluster struct {
	t     *testing.T
	urls  []string
	nodes []*Node
	srvs  []*httptest.Server
	down  []sync.Once
}

func startCluster(t *testing.T, n int, srvOpts server.Options, probe time.Duration, mutate ...func(*NodeOptions)) *testCluster {
	t.Helper()
	tc := &testCluster{t: t, down: make([]sync.Once, n)}
	for i := 0; i < n; i++ {
		ts := httptest.NewUnstartedServer(http.NotFoundHandler())
		tc.srvs = append(tc.srvs, ts)
		tc.urls = append(tc.urls, "http://"+ts.Listener.Addr().String())
	}
	for i := 0; i < n; i++ {
		var peers []string
		for j, u := range tc.urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		nopts := NodeOptions{
			Self:          tc.urls[i],
			Peers:         peers,
			Server:        srvOpts,
			ProbeInterval: probe,
			PeerTimeout:   2 * time.Second,
			ClientOptions: fastPeerOpts(),
		}
		for _, m := range mutate {
			m(&nopts)
		}
		node, err := NewNode(nopts)
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes = append(tc.nodes, node)
		tc.srvs[i].Config.Handler = node.Handler()
		tc.srvs[i].Start()
	}
	t.Cleanup(func() {
		for i := range tc.nodes {
			tc.shutdown(i)
		}
	})
	return tc
}

// kill simulates a crash: client connections are severed and the listener
// closes, with no drain. Safe to call concurrently and repeatedly.
func (tc *testCluster) kill(i int) {
	tc.down[i].Do(func() {
		tc.srvs[i].CloseClientConnections()
		tc.srvs[i].Close()
	})
	// The node's pool/probe goroutines are reaped by the test cleanup.
}

// shutdown drains node i gracefully (handoff runs while the peers are
// still serving), then closes its listener.
func (tc *testCluster) shutdown(i int) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := tc.nodes[i].Shutdown(ctx); err != nil {
		tc.t.Errorf("node %d shutdown: %v", i, err)
	}
	tc.down[i].Do(func() { tc.srvs[i].Close() })
}

// ownerIndex resolves which replica owns a model.
func (tc *testCluster) ownerIndex(sp *spec.Model) int {
	key, err := specHashHex(sp)
	if err != nil {
		tc.t.Fatal(err)
	}
	owner := tc.nodes[0].Ring().Owner(key)
	for i, u := range tc.urls {
		if u == owner {
			return i
		}
	}
	tc.t.Fatalf("owner %q is not a cluster member", owner)
	return -1
}

func TestClientRoutesEveryKeyToItsOwner(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tc := startCluster(t, 3, server.Options{Workers: 2}, -1)
	cc := NewClient(tc.urls, WithClientOptions(fastPeerOpts()...))
	defer cc.Close()

	const distinct = 12
	const order = 2
	for k := 0; k < distinct; k++ {
		resp, err := cc.Solve(context.Background(), &server.SolveRequest{Model: testSpec(k), T: 1, Order: order})
		if err != nil {
			t.Fatalf("solve %d: %v", k, err)
		}
		assertBitwise(t, resp.Moments, refMoments(t, k, 1, order), "routed solve")
	}

	// Every request must have landed on its ring owner: the owners saw
	// them as local, and nobody saw a remote request.
	var local, remote int64
	for i, n := range tc.nodes {
		m := n.Server().Metrics()
		local += m.RouteLocal.Load()
		if r := m.RouteRemote.Load(); r != 0 {
			t.Errorf("replica %d served %d requests it does not own", i, r)
		}
		remote += m.RouteRemote.Load()
	}
	if local != distinct {
		t.Errorf("owners saw %d local requests, want %d", local, distinct)
	}

	// The client's ring and every node's ring must agree on placement.
	for k := 0; k < distinct; k++ {
		key, err := specHashHex(testSpec(k))
		if err != nil {
			t.Fatal(err)
		}
		want := cc.Ring().Owner(key)
		for i, n := range tc.nodes {
			if got := n.Ring().Owner(key); got != want {
				t.Fatalf("replica %d places key %s… on %q, client on %q", i, key[:12], got, want)
			}
		}
	}

	// Healthy cluster: every per-peer breaker is closed.
	for peer, state := range cc.BreakerStates() {
		if state != "closed" {
			t.Errorf("breaker for %s is %q, want closed", peer, state)
		}
	}
}

func TestClientSingleURLIsPlainPassthrough(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tc := startCluster(t, 1, server.Options{Workers: 2}, -1)
	cc := NewClient(tc.urls, WithClientOptions(fastPeerOpts()...))
	defer cc.Close()
	if cc.single == nil {
		t.Fatal("single-URL client must collapse to the plain server client")
	}

	req := &server.SolveRequest{Model: testSpec(0), T: 1.5, Order: 3}
	resp, err := cc.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, resp.Moments, refMoments(t, 0, 1.5, 3), "single-URL solve")
	again, err := cc.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat solve should be a cache hit")
	}
}

// TestPeerFillAvoidsDuplicateSolve is the cache-fill acceptance check: a
// non-owner serving a hash the owner has cached must adopt the owner's
// result over the peer endpoint instead of solving — the owner's solve
// and prepared-build counters stay put, and the moments are bitwise the
// owner's.
func TestPeerFillAvoidsDuplicateSolve(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tc := startCluster(t, 3, server.Options{Workers: 2}, -1)

	sp := testSpec(0)
	ownerIdx := tc.ownerIndex(sp)
	nonOwner := (ownerIdx + 1) % len(tc.nodes)
	req := &server.SolveRequest{Model: sp, T: 1.25, Order: 3}

	// Prime the owner's result cache with a direct solve.
	direct := server.NewClient(tc.urls[ownerIdx], fastPeerOpts()...)
	base, err := direct.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ownerM := tc.nodes[ownerIdx].Server().Metrics()
	solvesBefore := ownerM.Solves.Load()
	preparedBefore := ownerM.PreparedMisses.Load()

	// The same request against a non-owner must be served by peer fill.
	other := server.NewClient(tc.urls[nonOwner], fastPeerOpts()...)
	resp, err := other.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.PeerFilled {
		t.Error("non-owner response not marked peer_filled")
	}
	assertBitwise(t, resp.Moments, base.Moments, "peer-filled solve")

	m := tc.nodes[nonOwner].Server().Metrics()
	if got := m.PeerFillHits.Load(); got != 1 {
		t.Errorf("non-owner peer_fill_hits = %d, want 1", got)
	}
	if got := m.Solves.Load(); got != 0 {
		t.Errorf("non-owner ran %d solves; the fill should have avoided all of them", got)
	}
	if got := m.RouteRemote.Load(); got != 1 {
		t.Errorf("non-owner route_remote = %d, want 1", got)
	}
	if got := ownerM.Solves.Load(); got != solvesBefore {
		t.Errorf("owner solves went %d -> %d while serving a peer fill", solvesBefore, got)
	}
	if got := ownerM.PreparedMisses.Load(); got != preparedBefore {
		t.Errorf("owner prepared builds went %d -> %d while serving a peer fill", preparedBefore, got)
	}

	// The fill was adopted into the non-owner's own cache — as a plain
	// entry: a later local hit reports Cached only, not PeerFilled (that
	// flag describes the filling request's path, not the entry).
	again, err := other.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat solve at the non-owner should hit its local cache")
	}
	if again.PeerFilled {
		t.Error("local cache hit must not report peer_filled")
	}

	// A hash the owner has never seen is a fill miss and solves locally.
	cold := &server.SolveRequest{Model: testSpec(1), T: 0.75, Order: 2}
	for k := 2; tc.ownerIndex(cold.Model) == nonOwner; k++ {
		cold.Model = testSpec(k) // pick any model the replica does not own
	}
	missResp, err := other.Solve(context.Background(), cold)
	if err != nil {
		t.Fatal(err)
	}
	if missResp.PeerFilled || missResp.Cached {
		t.Error("cold solve should have been computed locally")
	}
	if got := m.PeerFillMisses.Load(); got < 1 {
		t.Errorf("non-owner peer_fill_misses = %d, want >= 1", got)
	}
}

// TestDrainHandoffMigratesHotEntries checks the graceful-drain path: a
// draining replica streams its hot result and prepared-model entries to
// the ring successor, which then serves the hash from cache without ever
// solving it.
func TestDrainHandoffMigratesHotEntries(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tc := startCluster(t, 3, server.Options{Workers: 2}, -1)

	sp := testSpec(0)
	ownerIdx := tc.ownerIndex(sp)
	req := &server.SolveRequest{Model: sp, T: 2, Order: 3}

	direct := server.NewClient(tc.urls[ownerIdx], fastPeerOpts()...)
	base, err := direct.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// The handoff destination is the first ring successor after the owner.
	key, err := specHashHex(sp)
	if err != nil {
		t.Fatal(err)
	}
	succ := tc.nodes[ownerIdx].Ring().Successors(key, len(tc.nodes))
	if succ[0] != tc.urls[ownerIdx] {
		t.Fatalf("owner mismatch: %q vs %q", succ[0], tc.urls[ownerIdx])
	}
	destIdx := -1
	for i, u := range tc.urls {
		if u == succ[1] {
			destIdx = i
		}
	}
	if destIdx < 0 {
		t.Fatalf("successor %q is not a cluster member", succ[1])
	}

	tc.shutdown(ownerIdx)

	dm := tc.nodes[destIdx].Server().Metrics()
	// One result entry plus one prepared-model spec.
	if got := dm.HandoffEntries.Load(); got < 2 {
		t.Fatalf("successor accepted %d handoff entries, want >= 2", got)
	}

	// The successor serves the migrated result from cache, bitwise equal,
	// without solving.
	cl := server.NewClient(tc.urls[destIdx], fastPeerOpts()...)
	resp, err := cl.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("migrated result should be a cache hit on the successor")
	}
	assertBitwise(t, resp.Moments, base.Moments, "migrated result")
	if got := dm.Solves.Load(); got != 0 {
		t.Errorf("successor ran %d solves; the handoff should have avoided them", got)
	}

	// The prepared model migrated too: a batch against the successor is a
	// prepared-cache hit (the only build was the handoff acceptance).
	preparedMissesAfterHandoff := dm.PreparedMisses.Load()
	batch := &server.BatchRequest{
		Model: sp,
		Items: []server.BatchItem{{Times: []float64{0.5, 1}, Order: 2}},
	}
	if _, err := cl.SolveBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if got := dm.PreparedHits.Load(); got < 1 {
		t.Errorf("successor prepared_hits = %d, want >= 1 (prepared entry should have migrated)", got)
	}
	if got := dm.PreparedMisses.Load(); got != preparedMissesAfterHandoff {
		t.Errorf("successor rebuilt the prepared model (%d -> %d misses) despite the handoff",
			preparedMissesAfterHandoff, got)
	}
}

// typedClusterError mirrors the single-node chaos invariant: under
// faults the cluster client may surface typed API errors, breaker
// fail-fasts, exhausted budgets, or transient transport failures — never
// an untyped error or corrupted success.
func typedClusterError(err error) bool {
	var apiErr *server.APIError
	return errors.As(err, &apiErr) ||
		errors.Is(err, resilience.ErrBreakerOpen) ||
		errors.Is(err, resilience.ErrBudgetExhausted) ||
		resilience.IsTransient(err)
}

// TestClusterKillReplicaMidStorm is the cluster chaos drill: three
// replicas serve a concurrent storm, the owner of one shard is killed
// without warning mid-storm, and every request must still end in either
// a typed error or moments bitwise identical to the core solver. After
// the storm the dead replica's shard must be reachable via failover.
func TestClusterKillReplicaMidStorm(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	tc := startCluster(t, 3, server.Options{Workers: 2, QueueSize: 128}, -1)

	cc := NewClient(tc.urls,
		WithClientOptions(fastPeerOpts()...),
		WithPeerBreakerConfig(resilience.BreakerConfig{
			Window: 8, FailureRatio: 0.5, MinSamples: 4,
			Cooldown: 50 * time.Millisecond, HalfOpenProbes: 1,
		}))
	defer cc.Close()

	const distinct = 6
	const order = 2
	refs := make([][]float64, distinct)
	for k := range refs {
		refs[k] = refMoments(t, k, 1, order)
	}
	victim := tc.ownerIndex(testSpec(0))

	const goroutines = 10
	const repsEach = 6
	var ok, failed atomic.Int64
	var killOnce sync.Once
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < repsEach; r++ {
				if g == 0 && r == 2 {
					killOnce.Do(func() { tc.kill(victim) })
				}
				k := (g + r) % distinct
				resp, err := cc.Solve(context.Background(),
					&server.SolveRequest{Model: testSpec(k), T: 1, Order: order})
				if err != nil {
					if !typedClusterError(err) {
						t.Errorf("untyped storm error: %v", err)
					}
					failed.Add(1)
					continue
				}
				ok.Add(1)
				assertBitwise(t, resp.Moments, refs[k], "storm solve")
			}
		}(g)
	}
	wg.Wait()
	killOnce.Do(func() { tc.kill(victim) }) // in case the killer goroutine errored out early
	if ok.Load() == 0 {
		t.Fatal("no request succeeded during the storm")
	}
	t.Logf("storm: %d ok, %d typed failures", ok.Load(), failed.Load())

	// The dead replica's shard fails over: its keys now come from a ring
	// successor, bitwise identical to the reference.
	for k := 0; k < distinct; k++ {
		resp, err := cc.Solve(context.Background(),
			&server.SolveRequest{Model: testSpec(k), T: 1, Order: order})
		if err != nil {
			t.Fatalf("post-kill solve %d: %v", k, err)
		}
		assertBitwise(t, resp.Moments, refs[k], "failover solve")
	}

	// The survivors never produced anything but typed errors, so the
	// client should have marked only the victim down.
	if alive := cc.members.AliveCount(); alive != len(tc.urls)-1 {
		t.Errorf("membership sees %d live replicas, want %d", alive, len(tc.urls)-1)
	}
}

func TestNewNodeRejectsEmptySelf(t *testing.T) {
	if _, err := NewNode(NodeOptions{}); err == nil {
		t.Fatal("NewNode with no self URL must fail")
	}
}

// TestClientNoReplicasIsTypedError pins the empty-cluster behavior: a
// client whose URL list collapsed to nothing (nil, or all-blank tokens
// like "-server ,") must return ErrNoReplicas, never (nil, nil).
func TestClientNoReplicasIsTypedError(t *testing.T) {
	cc := NewClient(nil)
	defer cc.Close()

	resp, err := cc.Solve(context.Background(), &server.SolveRequest{Model: testSpec(0), T: 1, Order: 2})
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("Solve on empty cluster: err = %v, want ErrNoReplicas", err)
	}
	if resp != nil {
		t.Fatal("Solve on empty cluster returned a non-nil response")
	}
	bresp, err := cc.SolveBatch(context.Background(), &server.BatchRequest{
		Model: testSpec(0),
		Items: []server.BatchItem{{Times: []float64{1}, Order: 2}},
	})
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("SolveBatch on empty cluster: err = %v, want ErrNoReplicas", err)
	}
	if bresp != nil {
		t.Fatal("SolveBatch on empty cluster returned a non-nil response")
	}
}

// TestClusterPeerSecret runs a secret-bearing cluster end to end: the
// replicas authenticate each other's peer calls (cache fill still works),
// while unauthenticated peer requests are refused with 403.
func TestClusterPeerSecret(t *testing.T) {
	testutil.CheckGoroutineLeaks(t)
	const secret = "ring-secret"
	tc := startCluster(t, 3, server.Options{Workers: 2}, -1,
		func(o *NodeOptions) { o.PeerSecret = secret })

	sp := testSpec(0)
	ownerIdx := tc.ownerIndex(sp)
	nonOwner := (ownerIdx + 1) % len(tc.nodes)
	req := &server.SolveRequest{Model: sp, T: 1.25, Order: 3}

	// Prime the owner, then solve at a non-owner: the fill must succeed
	// because the replicas share the secret.
	direct := server.NewClient(tc.urls[ownerIdx], fastPeerOpts()...)
	if _, err := direct.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	other := server.NewClient(tc.urls[nonOwner], fastPeerOpts()...)
	resp, err := other.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.PeerFilled {
		t.Error("peer cache fill failed in a secret-bearing cluster")
	}

	// A client without the secret is locked out of the peer endpoints.
	key, err := specHashHex(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := direct.PeerResult(context.Background(), key); !isForbidden(err) {
		t.Errorf("unauthenticated peer result: err = %v, want HTTP 403", err)
	}
	if _, err := direct.PushHandoff(context.Background(), []server.HandoffEntry{
		{Key: key, SpecHash: key, Response: resp},
	}); !isForbidden(err) {
		t.Errorf("unauthenticated handoff: err = %v, want HTTP 403", err)
	}

	// With the secret, the same calls pass auth.
	authed := server.NewClient(tc.urls[ownerIdx],
		append(fastPeerOpts(), server.WithPeerSecret(secret))...)
	if _, found, err := authed.PeerResult(context.Background(), key); err != nil {
		t.Errorf("authenticated peer result failed: %v", err)
	} else if found {
		// The owner caches by full result key, not spec hash; a miss is
		// the expected answer here — auth passing is what matters.
		t.Log("peer result unexpectedly found by spec hash")
	}
}

func isForbidden(err error) bool {
	var apiErr *server.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusForbidden
}

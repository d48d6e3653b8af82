package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"somrm/internal/core"
	"somrm/internal/spec"
)

// postHandoff sends one handoff request, returning the HTTP status and the
// number of accepted entries (when the request succeeded).
func postHandoff(t *testing.T, url, secret string, entries []HandoffEntry) (int, int) {
	t.Helper()
	body, err := json.Marshal(HandoffRequest{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/peer/handoff", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if secret != "" {
		req.Header.Set(peerSecretHeader, secret)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Accepted int `json:"accepted"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out.Accepted
}

func getPeerResult(t *testing.T, url, key, secret string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/peer/result/"+key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if secret != "" {
		req.Header.Set(peerSecretHeader, secret)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// specEntry builds a valid prepared-model handoff entry from a spec.
func specEntry(t *testing.T, sp *spec.Model) HandoffEntry {
	t.Helper()
	js, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	key := hex.EncodeToString(h[:])
	return HandoffEntry{Key: key, SpecHash: key, SpecJSON: js}
}

// TestPeerEndpointsAbsentWithoutCluster pins the single-node security
// surface: a server built without cluster hooks must not expose the
// internal peer endpoints at all — in particular no unauthenticated
// cache-write path via /v1/peer/handoff.
func TestPeerEndpointsAbsentWithoutCluster(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	key := "00112233445566778899aabbccddeeff"
	if got := getPeerResult(t, ts.URL, key, ""); got != http.StatusNotFound {
		t.Errorf("GET /v1/peer/result without cluster: status %d, want 404", got)
	}
	status, _ := postHandoff(t, ts.URL, "", []HandoffEntry{specEntry(t, testSpec(0))})
	if status != http.StatusNotFound {
		t.Errorf("POST /v1/peer/handoff without cluster: status %d, want 404", status)
	}
	if got := s.metrics.HandoffEntries.Load(); got != 0 {
		t.Errorf("handoff counter moved (%d) on a non-cluster server", got)
	}
	if got := s.prepared.Len(); got != 0 {
		t.Errorf("prepared cache has %d entries; nothing should have been installed", got)
	}
}

// TestPeerEndpointsRequireSecret pins the shared-secret gate on both peer
// endpoints when ClusterHooks.Secret is configured.
func TestPeerEndpointsRequireSecret(t *testing.T) {
	const secret = "cluster-test-secret"
	s := New(Options{Workers: 1, Cluster: &ClusterHooks{Secret: secret}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	key := "00112233445566778899aabbccddeeff"
	if got := getPeerResult(t, ts.URL, key, ""); got != http.StatusForbidden {
		t.Errorf("peer result without secret: status %d, want 403", got)
	}
	if got := getPeerResult(t, ts.URL, key, "wrong"); got != http.StatusForbidden {
		t.Errorf("peer result with wrong secret: status %d, want 403", got)
	}
	// The correct secret passes auth; the key simply is not cached.
	if got := getPeerResult(t, ts.URL, key, secret); got != http.StatusNotFound {
		t.Errorf("peer result with secret: status %d, want 404 (not cached)", got)
	}

	entries := []HandoffEntry{specEntry(t, testSpec(0))}
	if status, _ := postHandoff(t, ts.URL, "", entries); status != http.StatusForbidden {
		t.Errorf("handoff without secret: status %d, want 403", status)
	}
	if got := s.prepared.Len(); got != 0 {
		t.Errorf("unauthenticated handoff installed %d prepared entries", got)
	}
	status, accepted := postHandoff(t, ts.URL, secret, entries)
	if status != http.StatusOK || accepted != 1 {
		t.Errorf("authenticated handoff: status %d accepted %d, want 200/1", status, accepted)
	}
}

// TestHandoffSpecRebuildCap pins the CPU bound on handoff processing: one
// request may trigger at most maxHandoffSpecEntries prepared-model
// rebuilds, while result entries (plain cache inserts) are unaffected by
// the budget.
func TestHandoffSpecRebuildCap(t *testing.T) {
	s := New(Options{Workers: 2, Cluster: &ClusterHooks{}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	var entries []HandoffEntry
	for k := 0; k < maxHandoffSpecEntries+3; k++ {
		entries = append(entries, specEntry(t, testSpec(k)))
	}
	// A result entry after the spec budget is exhausted must still land.
	resultKey := "00112233445566778899aabbccddeeff"
	specHash := "ffeeddccbbaa99887766554433221100"
	entries = append(entries, HandoffEntry{
		Key:      resultKey,
		SpecHash: specHash,
		Response: &SolveResponse{Moments: []float64{1, 2}},
	})

	status, accepted := postHandoff(t, ts.URL, "", entries)
	if status != http.StatusOK {
		t.Fatalf("handoff status %d, want 200", status)
	}
	if want := maxHandoffSpecEntries + 1; accepted != want {
		t.Errorf("accepted %d entries, want %d (spec budget %d + 1 result)",
			accepted, want, maxHandoffSpecEntries)
	}
	if got := s.prepared.Len(); got != maxHandoffSpecEntries {
		t.Errorf("prepared cache holds %d entries, want %d", got, maxHandoffSpecEntries)
	}
	if _, ok := s.cache.Get(resultKey); !ok {
		t.Error("result entry past the spec budget was not installed")
	}
	// Every rebuild went through the worker pool as a prepared-cache miss.
	if got := s.metrics.PreparedMisses.Load(); got != maxHandoffSpecEntries {
		t.Errorf("prepared misses = %d, want %d", got, maxHandoffSpecEntries)
	}
}

// TestPreparedHandoffShipsParsedSpec checks that a cluster-mode prepared
// miss keeps the request's parsed spec as it is — noting it serializes
// and copies nothing — and that the entry a drain ships rebuilds on the
// receiver under the same key.
func TestPreparedHandoffShipsParsedSpec(t *testing.T) {
	s := New(Options{Workers: 1, Cluster: &ClusterHooks{}})
	defer s.Shutdown(context.Background())
	// Unsorted edges and a negative zero: the shipped JSON must hash back
	// to the key without any canonical reordering on the sender.
	sp := &spec.Model{
		States:      3,
		Transitions: []spec.Transition{{From: 2, To: 0, Rate: 1.5}, {From: 0, To: 1, Rate: 2}, {From: 1, To: 2, Rate: 0.1}, {From: 1, To: 0, Rate: 3}},
		Rates:       []float64{1, math.Copysign(0, -1), 0.5},
		Variances:   []float64{0.1, 0, 2},
		Initial:     []float64{1, 0, 0},
		Impulses:    []spec.Impulse{{From: 1, To: 0, Reward: 0.75}, {From: 0, To: 1, Reward: 1e-300}},
	}
	h, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	key := hex.EncodeToString(h[:])
	if _, hit, err := s.prepare(context.Background(), key, func() (*core.Prepared, error) { return buildPrepared(sp) }, sp, 0); err != nil || hit {
		t.Fatalf("prepared miss: hit %v, %v", hit, err)
	}
	s.prepared.mu.Lock()
	held := s.prepared.items[key].Value.(*prepEntry).spec
	s.prepared.mu.Unlock()
	if held != sp {
		t.Fatalf("entry holds spec %p, want the request's %p", held, sp)
	}

	// Noting a spec on a resident entry allocates nothing.
	c := newPreparedCache(16)
	keys := make([]string, 11)
	for i := range keys {
		keys[i] = fmt.Sprint(i)
		c.GetOrBuild(context.Background(), keys[i], func() (*core.Prepared, error) { return nil, nil })
	}
	next := 0
	if allocs := testing.AllocsPerRun(len(keys)-1, func() { c.NoteSpec(keys[next], sp); next++ }); allocs != 0 {
		t.Errorf("NoteSpec allocated %v times per call, want 0", allocs)
	}

	// Drains may run while handlers note specs (run under -race).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprint(g, "/", i)
				c.GetOrBuild(context.Background(), key, func() (*core.Prepared, error) { return nil, nil })
				c.NoteSpec(key, sp)
				if got := c.Hottest(4); len(got) == 0 {
					t.Errorf("Hottest after noting %s: no entries", key)
				}
			}
		}(g)
	}
	wg.Wait()

	entries := s.prepared.Hottest(4)
	if len(entries) != 1 || entries[0].Key != key || entries[0].SpecHash != key {
		t.Fatalf("Hottest = %+v, want one entry under %s", entries, key)
	}
	r := New(Options{Workers: 1, Cluster: &ClusterHooks{}})
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	defer r.Shutdown(context.Background())
	if status, accepted := postHandoff(t, ts.URL, "", entries); status != http.StatusOK || accepted != 1 {
		t.Fatalf("handoff: status %d, %d accepted; want 200, 1", status, accepted)
	}
	_, hit, err := r.prepared.GetOrBuild(context.Background(), key, func() (*core.Prepared, error) {
		return nil, errors.New("handed-off entry missing")
	})
	if err != nil || !hit || r.prepared.Builds() != 1 {
		t.Errorf("receiver lookup under %s: hit %v, %v, %d builds; want a hit on the one handoff build", key, hit, err, r.prepared.Builds())
	}
}

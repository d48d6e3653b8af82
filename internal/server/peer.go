package server

import (
	"context"
	"crypto/subtle"
	"encoding/hex"
	"encoding/json"
	"net/http"

	"somrm/internal/core"
	"somrm/internal/spec"
)

// ClusterHooks connects a Server to a solver cluster without the server
// package knowing about ring or membership types (the cluster package
// imports server, not the other way around). All hooks must be non-nil
// when the struct itself is set; internal/cluster.NewNode wires them.
type ClusterHooks struct {
	// Self is this replica's advertised base URL.
	Self string
	// Secret, when non-empty, authenticates the internal peer endpoints:
	// every /v1/peer/* request must carry it in the X-Somrm-Peer-Secret
	// header or is refused with 403. All replicas must share one value
	// (server.WithPeerSecret makes the per-peer clients send it). Empty
	// keeps the endpoints open — acceptable only on a trusted network.
	Secret string
	// Owner maps a canonical spec hash (hex) to the owning replica's base
	// URL and reports whether that replica is this process. Placement is
	// keyed on the model hash, not the full result key, so every
	// (params, t) variant of one model lands on the same owner and its
	// prepared-model cache pays off.
	Owner func(specHash string) (url string, local bool)
	// FetchResult asks the owner's result cache for a result-cache key
	// (peer cache fill). It returns ok=false on a miss or any peer
	// failure; the caller then solves locally.
	FetchResult func(ctx context.Context, ownerURL, key string) (resp *SolveResponse, ok bool)
	// Handoff streams the hottest cache entries to ring successors during
	// drain and returns how many entries peers accepted.
	Handoff func(ctx context.Context, entries []HandoffEntry) int
	// PeerStates reports each peer's circuit-breaker state for the
	// /metrics per-peer gauge.
	PeerStates func() map[string]string
}

// HandoffEntry is one cache entry streamed to a ring successor when a
// replica drains. Exactly one of Response (a result-cache entry),
// SpecJSON (a prepared-model cache entry, shipped as its canonical spec
// so the receiver rebuilds it bitwise-identically), or Checkpoint (a held
// interrupted-sweep snapshot) is set.
type HandoffEntry struct {
	// Key is the result-cache key (results and checkpoints) or the
	// canonical spec hash (prepared models).
	Key string `json:"key"`
	// SpecHash is the canonical spec hash of the entry's model; it routes
	// the entry to the replica that owns the model.
	SpecHash string `json:"spec_hash"`
	// Response is the cached solve response for result entries.
	Response *SolveResponse `json:"response,omitempty"`
	// SpecJSON is the JSON spec of prepared entries; the receiver checks
	// that it hashes to Key.
	SpecJSON json.RawMessage `json:"spec,omitempty"`
	// Token and Checkpoint carry a held interrupted-sweep snapshot: the
	// receiver adopts it under the same resume token, so a client's
	// re-POST continues on the successor exactly where the drained replica
	// stopped.
	Token      string `json:"token,omitempty"`
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// HandoffRequest is the body of POST /v1/peer/handoff.
type HandoffRequest struct {
	Entries []HandoffEntry `json:"entries"`
}

// maxHandoffEntries bounds how many entries one handoff request may carry;
// larger pushes are truncated by the drainer and rejected by the receiver.
const maxHandoffEntries = 1024

// maxHandoffSpecEntries bounds how many prepared-model rebuilds one
// handoff request may trigger. Result entries are plain cache inserts, but
// each spec entry costs a full model build (validation, uniformization,
// matrix scaling), so the per-request CPU exposure is capped far below the
// raw entry limit; excess spec entries are skipped, and the sender's
// successor simply rebuilds those models on demand.
const maxHandoffSpecEntries = 64

// peerSecretHeader carries the cluster's shared secret on internal peer
// calls when ClusterHooks.Secret is configured.
const peerSecretHeader = "X-Somrm-Peer-Secret"

// peerAuthorized checks the shared-secret header against the configured
// cluster secret (constant-time). An empty secret admits everything. Only
// called from the peer handlers, which are registered solely when
// opts.Cluster is non-nil.
func (s *Server) peerAuthorized(r *http.Request) bool {
	secret := s.opts.Cluster.Secret
	if secret == "" {
		return true
	}
	got := r.Header.Get(peerSecretHeader)
	return subtle.ConstantTimeCompare([]byte(got), []byte(secret)) == 1
}

// handlePeerResult serves GET /v1/peer/result/{key}: a read-only lookup of
// this replica's result cache by full result-cache key, used by non-owner
// replicas for peer cache fill before solving locally. It deliberately
// works while draining — handing out cached results is exactly what a
// draining owner is still good for.
func (s *Server) handlePeerResult(w http.ResponseWriter, r *http.Request) {
	if !s.peerAuthorized(r) {
		writeError(w, http.StatusForbidden, "missing or invalid peer secret")
		return
	}
	key := r.PathValue("key")
	if !validHexKey(key) {
		writeError(w, http.StatusBadRequest, "bad result key")
		return
	}
	resp, ok := s.cache.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "not cached")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePeerHandoff serves POST /v1/peer/handoff: it absorbs a draining
// peer's hottest entries, inserting results into the local result cache
// and rebuilding prepared models from their canonical specs. Entries are
// validated individually; a malformed one is skipped, not fatal, so one
// bad entry cannot void a whole drain. Prepared-model rebuilds run on the
// worker pool under this server's normal admission control and are capped
// at maxHandoffSpecEntries per request.
func (s *Server) handlePeerHandoff(w http.ResponseWriter, r *http.Request) {
	if !s.peerAuthorized(r) {
		writeError(w, http.StatusForbidden, "missing or invalid peer secret")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrShuttingDown.Error())
		return
	}
	var req HandoffRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Entries) > maxHandoffEntries {
		writeError(w, http.StatusBadRequest, "too many handoff entries")
		return
	}
	// One deadline for the whole push: a drain handoff is best effort, so
	// it must never hold this handler (or the pool slots its rebuilds
	// occupy) longer than a regular solve is allowed to run.
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.DefaultTimeout)
	defer cancel()
	accepted := 0
	specBudget := maxHandoffSpecEntries
	for i := range req.Entries {
		e := &req.Entries[i]
		if e.Response == nil && len(e.SpecJSON) > 0 {
			if specBudget == 0 {
				continue
			}
			specBudget--
		}
		if s.acceptHandoffEntry(ctx, e) {
			accepted++
		}
	}
	s.metrics.HandoffEntries.Add(int64(accepted))
	writeJSON(w, http.StatusOK, map[string]int{"accepted": accepted})
}

// acceptHandoffEntry installs one streamed entry, reporting whether it was
// usable.
func (s *Server) acceptHandoffEntry(ctx context.Context, e *HandoffEntry) bool {
	if !validHexKey(e.Key) || !validHexKey(e.SpecHash) {
		return false
	}
	switch {
	case e.Response != nil:
		// A result entry: adopt it as-is. The response is bitwise the
		// owner's solve, so serving it locally preserves the cluster's
		// determinism guarantee.
		s.cache.Put(e.Key, e.SpecHash, e.Response)
		return true
	case len(e.Checkpoint) > 0:
		// A held interrupted-sweep snapshot: adopt it under the sender's
		// token so the client's resume re-POST lands here unchanged. The
		// blob is self-verifying; a corrupt or implausible one is skipped.
		if s.checkpoints == nil || !validHexKey(e.Token) {
			return false
		}
		cp, err := core.DecodeCheckpoint(e.Checkpoint)
		if err != nil {
			return false
		}
		s.checkpoints.adopt(e.Token, e.Key, e.SpecHash, e.Checkpoint, cp.Completed, cp.GMax)
		return true
	case len(e.SpecJSON) > 0:
		// A prepared-model entry: rebuild from the shipped spec through
		// the prepared cache (single-flight, LRU). The key must be the
		// spec's own canonical hash — a mismatch means a corrupted entry.
		sp, err := spec.Parse(e.SpecJSON)
		if err != nil {
			return false
		}
		h, err := sp.Hash()
		if err != nil || hex.EncodeToString(h[:]) != e.Key {
			return false
		}
		// The rebuild is real CPU work (validation, uniformization, matrix
		// scaling), so it runs on the worker pool like any build: queue
		// admission control applies, and a full queue or expired deadline
		// skips the entry instead of pinning the handler goroutine.
		_, _, err = s.prepare(ctx, e.Key, func() (*core.Prepared, error) { return buildPrepared(sp) }, sp, 0)
		return err == nil
	default:
		return false
	}
}

// validHexKey reports whether k looks like one of our content hashes: a
// non-empty, reasonably bounded, lowercase-hex string. Peer endpoints are
// internal, but the check keeps junk out of cache keys and URL paths.
func validHexKey(k string) bool {
	if len(k) == 0 || len(k) > 128 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handoffEntries snapshots the hottest result-cache and prepared-model
// entries for drain handoff, most recently used first, bounded by the
// configured budget.
func (s *Server) handoffEntries(limit int) []HandoffEntry {
	if limit <= 0 {
		return nil
	}
	entries := s.cache.Hottest(limit)
	// Held checkpoints ride along outside the result/spec budget (their
	// own, much smaller cap): they are the only entries whose loss costs a
	// client real progress, not just a recompute.
	if s.checkpoints != nil {
		entries = append(entries, s.checkpoints.export(maxHandoffCheckpointEntries)...)
	}
	// Spend what remains of the budget on prepared models: results are
	// the cheaper win (no recompute at all), prepared specs save the
	// receiver a build per model.
	if rest := limit - len(entries); rest > 0 {
		entries = append(entries, s.prepared.Hottest(rest)...)
	}
	return entries
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"somrm/internal/core"
)

// serverCountdownCtx reports cancellation after Err has been polled a
// fixed number of times, so tests interrupt a solve at an exact iteration
// barrier instead of racing a wall-clock deadline.
type serverCountdownCtx struct {
	context.Context
	polls int
}

func (c *serverCountdownCtx) Err() error {
	if c.polls <= 0 {
		return context.DeadlineExceeded
	}
	c.polls--
	return nil
}

// interruptRequest runs the request's solve under a countdown context with
// checkpointing on, returning the genuine *core.Interrupted error the
// solver produces at a mid-sweep deadline.
func interruptRequest(t *testing.T, req *SolveRequest, polls int) error {
	t.Helper()
	prep, err := req.buildFor()()
	if err != nil {
		t.Fatal(err)
	}
	ctx := &serverCountdownCtx{Context: context.Background(), polls: polls}
	_, err = prep.AccumulatedRewardContext(ctx, req.T, req.Order, &core.Options{
		Epsilon: req.Epsilon, Checkpoint: true, CancelStride: 1,
	})
	var ir *core.Interrupted
	if !errors.As(err, &ir) {
		t.Fatalf("want *core.Interrupted, got %v", err)
	}
	return err
}

// directSolve solves a normalized randomization request without a server.
func directSolve(t *testing.T, req *SolveRequest) *core.Result {
	t.Helper()
	prep, err := req.buildFor()()
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.AccumulatedReward(req.T, req.Order, &core.Options{Epsilon: req.Epsilon})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSolvePartialAndResume drives the full durable-solve loop over HTTP:
// a deadline mid-sweep answers 202 with a resume token, the re-POST with
// the token completes from the checkpoint, the final moments are bitwise
// identical to an uninterrupted solve, and the finished result is cached.
func TestSolvePartialAndResume(t *testing.T) {
	s := New(Options{Workers: 2, Checkpoints: true})
	defer s.Shutdown(context.Background())

	req := &SolveRequest{Model: testSpec(1), T: 1.2, Order: 3}
	if err := req.normalize(12); err != nil {
		t.Fatal(err)
	}
	calls := 0
	s.solveItem = func(ctx context.Context, prep *core.Prepared, item *BatchItem) ([]BatchPoint, error) {
		calls++
		if calls == 1 {
			return nil, interruptRequest(t, req, 4)
		}
		return s.runItem(ctx, prep, item)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	full := directSolve(t, req)

	body := solveBody(t, &SolveRequest{Model: testSpec(1), T: 1.2, Order: 3})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var partial PartialResponse
	raw, _ := readAll(resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &partial); err != nil {
		t.Fatal(err)
	}
	if partial.Status != "partial" || partial.ResumeToken == "" {
		t.Fatalf("bad partial response: %+v", partial)
	}
	if partial.Completed <= 0 || partial.Completed >= partial.GMax {
		t.Fatalf("implausible progress: %+v", partial)
	}
	if got := s.metrics.Partials.Load(); got != 1 {
		t.Fatalf("partials_total = %d, want 1", got)
	}
	if s.cache.Len() != 0 {
		t.Fatal("partial result must not be cached")
	}

	// Re-POST with the token: completes from the checkpoint, bitwise equal.
	withToken := solveBody(t, &SolveRequest{Model: testSpec(1), T: 1.2, Order: 3, ResumeToken: partial.ResumeToken})
	hresp, out, rawOut := postSolve(t, ts.URL, withToken)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("resume status %d: %s", hresp.StatusCode, rawOut)
	}
	if !out.Resumed {
		t.Fatal("resumed response not marked resumed")
	}
	for j := range full.Moments {
		if math.Float64bits(out.Moments[j]) != math.Float64bits(full.Moments[j]) {
			t.Fatalf("resumed moment %d = %x, want %x (not bitwise identical)",
				j, math.Float64bits(out.Moments[j]), math.Float64bits(full.Moments[j]))
		}
	}
	if got := s.metrics.Resumes.Load(); got != 1 {
		t.Fatalf("resumes_total = %d, want 1", got)
	}
	if s.checkpoints.Len() != 0 {
		t.Fatal("checkpoint not removed after successful resume")
	}

	// The completed result is cached under the token-free key.
	hresp2, out2, _ := postSolve(t, ts.URL, body)
	if hresp2.StatusCode != http.StatusOK || !out2.Cached {
		t.Fatalf("finished result not cached: status %d cached=%v", hresp2.StatusCode, out2.Cached)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestResumeTokenErrors pins the typed failure statuses: unknown tokens
// answer 410 Gone, tokens replayed against a different request 400, and
// tokens on a server without checkpoints 400.
func TestResumeTokenErrors(t *testing.T) {
	s := New(Options{Workers: 1, Checkpoints: true})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(req *SolveRequest) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(solveBody(t, req)))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := readAll(resp)
		return resp.StatusCode, string(raw)
	}

	if code, body := post(&SolveRequest{Model: testSpec(0), T: 1, Order: 2, ResumeToken: strings.Repeat("ab", 16)}); code != http.StatusGone {
		t.Fatalf("unknown token: status %d, want 410: %s", code, body)
	}
	if code, body := post(&SolveRequest{Model: testSpec(0), T: 1, Order: 2, ResumeToken: "not hex!"}); code != http.StatusBadRequest {
		t.Fatalf("malformed token: status %d, want 400: %s", code, body)
	}

	// A token held for one request replayed against another: 400, typed.
	req := &SolveRequest{Model: testSpec(0), T: 1, Order: 2}
	if err := req.normalize(12); err != nil {
		t.Fatal(err)
	}
	key, err := req.cacheKey()
	if err != nil {
		t.Fatal(err)
	}
	ierr := interruptRequest(t, req, 3)
	var ir *core.Interrupted
	errors.As(ierr, &ir)
	token := s.checkpoints.Put(key, req.specHash, ir.Checkpoint.Encode(), ir.Checkpoint.Completed, ir.Checkpoint.GMax)
	if code, body := post(&SolveRequest{Model: testSpec(0), T: 2, Order: 2, ResumeToken: token}); code != http.StatusBadRequest {
		t.Fatalf("token for different request: status %d, want 400: %s", code, body)
	}

	// Checkpoints disabled: resume tokens are a client error.
	s2 := New(Options{Workers: 1})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err := http.Post(ts2.URL+"/v1/solve", "application/json",
		bytes.NewReader(solveBody(t, &SolveRequest{Model: testSpec(0), T: 1, Order: 2, ResumeToken: strings.Repeat("cd", 16)})))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := readAll(resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("checkpoints off: status %d, want 400: %s", resp.StatusCode, raw)
	}
}

// TestResumeTokenV1Gone: a held checkpoint in the SOMRMCK1 layout,
// recorded before the plan windows gained the left truncation point,
// is refused on the resume path with the 410 of any unusable held
// token, and dropped, so the client's retry without it solves afresh.
func TestResumeTokenV1Gone(t *testing.T) {
	blob, err := os.ReadFile("../core/testdata/checkpoint_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Checkpoints: true})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The fixture was interrupted solving this request.
	req := &SolveRequest{Model: testSpec(0), T: 10, Order: 3}
	if err := req.normalize(12); err != nil {
		t.Fatal(err)
	}
	key, err := req.cacheKey()
	if err != nil {
		t.Fatal(err)
	}
	token := s.checkpoints.Put(key, req.specHash, blob, 19, 84)
	post := func(token string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
			bytes.NewReader(solveBody(t, &SolveRequest{Model: testSpec(0), T: 10, Order: 3, ResumeToken: token})))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := readAll(resp)
		return resp.StatusCode, string(raw)
	}
	if code, body := post(token); code != http.StatusGone {
		t.Fatalf("SOMRMCK1 token: status %d, want 410: %s", code, body)
	}
	if _, ok := s.checkpoints.Get(token); ok {
		t.Fatal("SOMRMCK1 checkpoint still held after the refused resume")
	}
	if code, body := post(""); code != http.StatusOK {
		t.Fatalf("retry without the token: status %d: %s", code, body)
	}
}

// TestCheckpointStore pins the store's bookkeeping: stable tokens per
// request key, monotone progress on refresh, TTL expiry, cap eviction, and
// newest-first bounded export.
func TestCheckpointStore(t *testing.T) {
	now := time.Unix(1000, 0)
	cs := newCheckpointStore(3, time.Minute)
	cs.now = func() time.Time { return now }

	tok := cs.Put("key-a", "spec-a", []byte("blob1"), 5, 100)
	if tok == "" || !validHexKey(tok) {
		t.Fatalf("bad token %q", tok)
	}
	// Same key again: token is stable, fresher state wins, staler is kept out.
	if tok2 := cs.Put("key-a", "spec-a", []byte("blob2"), 9, 100); tok2 != tok {
		t.Fatalf("token changed on refresh: %q -> %q", tok, tok2)
	}
	if e, _ := cs.Get(tok); string(e.blob) != "blob2" || e.completed != 9 {
		t.Fatalf("fresher state lost: %+v", e)
	}
	if tok3 := cs.Put("key-a", "spec-a", []byte("stale"), 2, 100); tok3 != tok {
		t.Fatal("token changed on stale refresh")
	}
	if e, _ := cs.Get(tok); string(e.blob) != "blob2" {
		t.Fatal("stale state overwrote fresher checkpoint")
	}

	// TTL expiry.
	now = now.Add(2 * time.Minute)
	if _, ok := cs.Get(tok); ok {
		t.Fatal("expired checkpoint still served")
	}
	if cs.Len() != 0 {
		t.Fatalf("expired entries not purged: len=%d", cs.Len())
	}

	// Cap eviction, oldest first.
	for i := 0; i < 4; i++ {
		cs.Put(fmt.Sprintf("key-%d", i), "spec", []byte("b"), i, 10)
	}
	if cs.Len() != 3 {
		t.Fatalf("cap not enforced: len=%d", cs.Len())
	}

	// Export: newest first, bounded.
	got := cs.export(2)
	if len(got) != 2 {
		t.Fatalf("export returned %d entries, want 2", len(got))
	}
	if got[0].Key != "key-3" || got[1].Key != "key-2" {
		t.Fatalf("export not newest-first: %q, %q", got[0].Key, got[1].Key)
	}
	if got[0].Token == "" || len(got[0].Checkpoint) == 0 {
		t.Fatalf("export entry missing token or blob: %+v", got[0])
	}
}

// TestCheckpointHandoff moves a held checkpoint between replicas through
// the drain-handoff path and resumes it on the successor with the original
// token — in-flight work survives a rolling restart.
func TestCheckpointHandoff(t *testing.T) {
	s1 := New(Options{Workers: 1, Checkpoints: true, Cluster: &ClusterHooks{
		Self:  "http://a",
		Owner: func(string) (string, bool) { return "", true },
	}})
	defer s1.Shutdown(context.Background())
	s2 := New(Options{Workers: 2, Checkpoints: true, Cluster: &ClusterHooks{
		Self:  "http://b",
		Owner: func(string) (string, bool) { return "", true },
	}})
	defer s2.Shutdown(context.Background())

	req := &SolveRequest{Model: testSpec(3), T: 1.1, Order: 3}
	if err := req.normalize(12); err != nil {
		t.Fatal(err)
	}
	key, err := req.cacheKey()
	if err != nil {
		t.Fatal(err)
	}
	ierr := interruptRequest(t, req, 5)
	var ir *core.Interrupted
	errors.As(ierr, &ir)
	token := s1.checkpoints.Put(key, req.specHash, ir.Checkpoint.Encode(), ir.Checkpoint.Completed, ir.Checkpoint.GMax)

	entries := s1.handoffEntries(16)
	var cpEntries int
	for i := range entries {
		if len(entries[i].Checkpoint) > 0 {
			cpEntries++
			if !s2.acceptHandoffEntry(context.Background(), &entries[i]) {
				t.Fatal("successor refused checkpoint handoff entry")
			}
		}
	}
	if cpEntries != 1 {
		t.Fatalf("handoff exported %d checkpoint entries, want 1", cpEntries)
	}

	// A corrupt blob is refused, never adopted.
	bad := HandoffEntry{Key: key, SpecHash: req.specHash, Token: strings.Repeat("ef", 16), Checkpoint: []byte("garbage")}
	if s2.acceptHandoffEntry(context.Background(), &bad) {
		t.Fatal("successor adopted a corrupt checkpoint")
	}

	// The client's original token resumes on the successor.
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	full := directSolve(t, req)
	hresp, out, raw := postSolve(t, ts2.URL, solveBody(t, &SolveRequest{Model: testSpec(3), T: 1.1, Order: 3, ResumeToken: token}))
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("resume on successor: status %d: %s", hresp.StatusCode, raw)
	}
	if !out.Resumed {
		t.Fatal("successor solve not marked resumed")
	}
	for j := range full.Moments {
		if math.Float64bits(out.Moments[j]) != math.Float64bits(full.Moments[j]) {
			t.Fatalf("handed-off resume moment %d not bitwise identical", j)
		}
	}
}

// TestQueueDeadlineTyped pins the queue-shed split: a deadline that
// expires while the task is queued surfaces as *QueueDeadlineError (still
// a 504 and still a context deadline for errors.Is), counted separately
// from instant queue-full rejections.
func TestQueueDeadlineTyped(t *testing.T) {
	p := newPool(1, 4, nil)
	defer p.Shutdown(context.Background())

	release := make(chan struct{})
	blocked := make(chan struct{})
	go p.Do(context.Background(), func(context.Context) {
		close(blocked)
		<-release
	})
	<-blocked

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- p.Do(ctx, func(context.Context) {}) }()
	<-ctx.Done()
	close(release)
	err := <-errCh
	var qd *QueueDeadlineError
	if !errors.As(err, &qd) {
		t.Fatalf("want *QueueDeadlineError, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("QueueDeadlineError must unwrap to the context error")
	}

	// Metric split via the HTTP error writer.
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	s.writeSolveError(rec, err)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("queue-deadline status %d, want 504", rec.Code)
	}
	if s.metrics.ShedDeadline.Load() != 1 || s.metrics.ShedQueueFull.Load() != 0 {
		t.Fatalf("shed split wrong: deadline=%d full=%d", s.metrics.ShedDeadline.Load(), s.metrics.ShedQueueFull.Load())
	}
	rec2 := httptest.NewRecorder()
	s.writeSolveError(rec2, ErrQueueFull)
	if rec2.Code != http.StatusServiceUnavailable || s.metrics.ShedQueueFull.Load() != 1 {
		t.Fatalf("queue-full not counted: status %d full=%d", rec2.Code, s.metrics.ShedQueueFull.Load())
	}
}

// TestNewDegradesToColdCache: an unusable persistence directory must not
// stop the server — New falls back to an in-memory cache.
func TestNewDegradesToColdCache(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, PersistDir: filepath.Join(blocker, "sub")})
	defer s.Shutdown(context.Background())
	if s.persist != nil {
		t.Fatal("persistence should have been disabled")
	}
	if _, err := NewWithPersistence(Options{Workers: 1, PersistDir: filepath.Join(blocker, "sub")}); err == nil {
		t.Fatal("NewWithPersistence should surface the error")
	}
}

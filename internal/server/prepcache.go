package server

import (
	"container/list"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"

	"somrm/internal/core"
	"somrm/internal/spec"
)

// preparedCache is a fixed-capacity LRU of prepared models keyed by the
// canonical spec hash. It is the layer that lets repeated requests against
// the same model skip parsing, validation, and the solver's matrix scaling.
//
// Concurrent misses on the same key are collapsed onto a single build by
// the server's single-flight (flightGroup): followers wait for the
// leader's result, or until their own deadline, instead of preparing the
// same model again. Only a successful build enters the LRU, so a failed
// one is retried by the next request. A zero or negative capacity
// disables caching; every caller then builds its own prepared model.
type preparedCache struct {
	mu     sync.Mutex
	cap    int
	order  *list.List // front = most recently used
	items  map[string]*list.Element
	flight *flightGroup[*core.Prepared]

	// builds counts actual Prepare executions — the quantity the
	// single-flight guarantee bounds (at most one per distinct key while the
	// key stays resident).
	builds atomic.Int64
}

type prepEntry struct {
	key  string
	prep *core.Prepared
	// spec is the parsed spec behind the entry, recorded via NoteSpec so
	// drain handoff can ship the model to a ring successor (which rebuilds
	// it bitwise-identically). It is serialized only when a drain asks.
	// Guarded by the cache mutex; nil until a handler notes the spec.
	spec *spec.Model
}

func newPreparedCache(capacity int) *preparedCache {
	return &preparedCache{
		cap:    capacity,
		order:  list.New(),
		items:  make(map[string]*list.Element),
		flight: newFlightGroup[*core.Prepared](),
	}
}

// GetOrBuild returns the prepared model for key, building it with build at
// most once among concurrent callers. hit reports whether the model was
// resident or came from another caller's in-flight build; a caller
// joining such a build gives up when ctx ends.
func (c *preparedCache) GetOrBuild(ctx context.Context, key string, build func() (*core.Prepared, error)) (prep *core.Prepared, hit bool, err error) {
	if c.cap <= 0 {
		c.builds.Add(1)
		prep, err = build()
		return prep, false, err
	}
	if prep, ok := c.lookup(key); ok {
		return prep, true, nil
	}
	resident := false
	prep, shared, err := c.flight.Do(ctx, key, func() (*core.Prepared, error) {
		// A build that finished since the lookup above is resident now:
		// it enters the LRU before its flight ends.
		if prep, ok := c.lookup(key); ok {
			resident = true
			return prep, nil
		}
		c.builds.Add(1)
		prep, err := build()
		if err == nil {
			c.insert(key, prep)
		}
		return prep, err
	})
	return prep, shared || resident, err
}

// lookup returns the resident model under key, marking it most recently
// used.
func (c *preparedCache) lookup(key string) (*core.Prepared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*prepEntry).prep, true
}

// insert makes prep resident under key, evicting the least recently used
// entry beyond capacity.
func (c *preparedCache) insert(key string, prep *core.Prepared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items[key] = c.order.PushFront(&prepEntry{key: key, prep: prep})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*prepEntry).key)
	}
}

// NoteSpec attaches the spec behind key to its resident entry, so drain
// handoff can ship the model to a successor. It is a no-op when the key
// is not resident. The spec is kept as parsed, and must not change while
// the entry lives.
func (c *preparedCache) NoteSpec(key string, sp *spec.Model) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		if e := el.Value.(*prepEntry); e.spec == nil {
			e.spec = sp
		}
	}
	c.mu.Unlock()
}

// Hottest returns up to n prepared-model entries in most-recently-used
// order as drain-handoff entries (JSON specs; the receiver parses,
// re-hashes and rebuilds). Entries whose spec was never noted are
// skipped. The specs are marshaled outside the cache lock.
func (c *preparedCache) Hottest(n int) []HandoffEntry {
	if c.cap <= 0 || n <= 0 {
		return nil
	}
	c.mu.Lock()
	picked := make([]*prepEntry, 0, min(n, c.order.Len()))
	for el := c.order.Front(); el != nil && len(picked) < n; el = el.Next() {
		if e := el.Value.(*prepEntry); e.spec != nil {
			picked = append(picked, e)
		}
	}
	c.mu.Unlock()
	// A noted spec is never replaced, so it is read here without the lock.
	entries := make([]HandoffEntry, 0, len(picked))
	for _, e := range picked {
		js, err := json.Marshal(e.spec)
		if err != nil {
			continue
		}
		entries = append(entries, HandoffEntry{Key: e.key, SpecHash: e.key, SpecJSON: js})
	}
	return entries
}

// Len returns the current number of resident prepared models.
func (c *preparedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Builds returns the number of Prepare executions performed through the
// cache.
func (c *preparedCache) Builds() int64 { return c.builds.Load() }

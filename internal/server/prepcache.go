package server

import (
	"container/list"
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
// Concurrent misses on the same key are collapsed onto a single build
// (single-flight): followers wait for the leader's result instead of
// preparing the same model again. Failed builds are not cached, so a later
// request retries. A zero or negative capacity disables caching; every
// caller then builds its own prepared model.
type preparedCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element

	// builds counts actual Prepare executions — the quantity the
	// single-flight guarantee bounds (at most one per distinct key while the
	// key stays resident).
	builds atomic.Int64
}

type prepEntry struct {
	key   string
	ready chan struct{} // closed when prep/err are set
	prep  *core.Prepared
	err   error
	// spec is the parsed spec behind the entry, recorded via NoteSpec so
	// drain handoff can ship the model to a ring successor (which rebuilds
	// it bitwise-identically). It is serialized only when a drain asks.
	// Guarded by the cache mutex; nil until a handler notes the spec.
	spec *spec.Model
}

func newPreparedCache(capacity int) *preparedCache {
	return &preparedCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// GetOrBuild returns the prepared model for key, building it with build at
// most once among concurrent callers. hit reports whether the key was
// already resident (possibly still building; the call then waits for the
// in-flight build instead of duplicating it).
func (c *preparedCache) GetOrBuild(key string, build func() (*core.Prepared, error)) (prep *core.Prepared, hit bool, err error) {
	if c.cap <= 0 {
		c.builds.Add(1)
		prep, err = build()
		return prep, false, err
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*prepEntry)
		c.mu.Unlock()
		<-e.ready
		return e.prep, true, e.err
	}
	e := &prepEntry{key: key, ready: make(chan struct{})}
	c.items[key] = c.order.PushFront(e)
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*prepEntry).key)
	}
	c.mu.Unlock()

	c.builds.Add(1)
	e.prep, e.err = build()
	if e.err != nil {
		// Drop failed builds (only if the slot still holds this entry).
		c.mu.Lock()
		if el, ok := c.items[key]; ok && el.Value.(*prepEntry) == e {
			c.order.Remove(el)
			delete(c.items, key)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.prep, false, e.err
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
// re-hashes and rebuilds). Entries whose spec was never noted, or whose
// build failed or is still in flight, are skipped. The specs are
// marshaled outside the cache lock.
func (c *preparedCache) Hottest(n int) []HandoffEntry {
	if c.cap <= 0 || n <= 0 {
		return nil
	}
	c.mu.Lock()
	picked := make([]*prepEntry, 0, min(n, c.order.Len()))
	for el := c.order.Front(); el != nil && len(picked) < n; el = el.Next() {
		e := el.Value.(*prepEntry)
		if e.spec == nil {
			continue
		}
		select {
		case <-e.ready:
			if e.err != nil {
				continue
			}
		default:
			continue // still building
		}
		picked = append(picked, e)
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

// Len returns the current number of cached entries (including in-flight
// builds).
func (c *preparedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Builds returns the number of Prepare executions performed through the
// cache.
func (c *preparedCache) Builds() int64 { return c.builds.Load() }

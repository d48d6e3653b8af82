package server

import (
	"context"
	"sync"
)

// flightGroup deduplicates concurrent identical work: while a call for a
// key is in flight, later callers for the same key wait for its result
// instead of running it again (a minimal single-flight, stdlib-only). The
// server runs one for whole solves and the prepared cache one for model
// builds.
type flightGroup[T any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[T]
}

type flightCall[T any] struct {
	done chan struct{}
	val  T
	err  error
}

func newFlightGroup[T any]() *flightGroup[T] {
	return &flightGroup[T]{calls: make(map[string]*flightCall[T])}
}

// Do executes fn once per key among concurrent callers. Followers block
// until the leader finishes or their own context expires; shared reports
// whether the result came from another caller's execution. A follower
// that gives up early leaves the leader running (its result still lands
// in the cache for future requests).
func (g *flightGroup[T]) Do(ctx context.Context, key string, fn func() (T, error)) (val T, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return val, true, ctx.Err()
		}
	}
	c := &flightCall[T]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

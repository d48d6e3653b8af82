package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"somrm/internal/core"
)

func TestPreparedCacheSingleFlight(t *testing.T) {
	c := newPreparedCache(4)
	model, err := testSpec(0).Build()
	if err != nil {
		t.Fatal(err)
	}

	// Many concurrent callers of the same key collapse onto one build.
	const callers = 32
	release := make(chan struct{})
	var wg sync.WaitGroup
	preps := make([]*core.Prepared, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prep, _, err := c.GetOrBuild(context.Background(), "k", func() (*core.Prepared, error) {
				<-release // hold the leader's build until all followers arrive
				return core.Prepare(model)
			})
			if err != nil {
				t.Error(err)
			}
			preps[i] = prep
		}(i)
	}
	close(release)
	wg.Wait()
	if got := c.Builds(); got != 1 {
		t.Errorf("builds = %d, want 1 (single flight)", got)
	}
	for i := 1; i < callers; i++ {
		if preps[i] != preps[0] {
			t.Fatalf("caller %d got a different prepared instance", i)
		}
	}
}

func TestPreparedCacheFailedBuildRetries(t *testing.T) {
	c := newPreparedCache(4)
	boom := errors.New("boom")
	if _, _, err := c.GetOrBuild(context.Background(), "k", func() (*core.Prepared, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Errorf("failed build cached: len = %d", c.Len())
	}
	model, err := testSpec(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	prep, hit, err := c.GetOrBuild(context.Background(), "k", func() (*core.Prepared, error) { return core.Prepare(model) })
	if err != nil || prep == nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	if hit {
		t.Error("retry reported a hit")
	}
	if got := c.Builds(); got != 2 {
		t.Errorf("builds = %d, want 2", got)
	}
}

func TestPreparedCacheEvictionAndDisable(t *testing.T) {
	model, err := testSpec(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*core.Prepared, error) { return core.Prepare(model) }

	c := newPreparedCache(2)
	for _, k := range []string{"a", "b", "c"} { // c evicts a
		if _, _, err := c.GetOrBuild(context.Background(), k, build); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	if _, hit, _ := c.GetOrBuild(context.Background(), "a", build); hit {
		t.Error("evicted key reported a hit")
	}

	d := newPreparedCache(-1)
	for i := 0; i < 3; i++ {
		if _, hit, err := d.GetOrBuild(context.Background(), "k", build); err != nil || hit {
			t.Fatalf("disabled cache: hit=%v err=%v", hit, err)
		}
	}
	if got := d.Builds(); got != 3 {
		t.Errorf("disabled cache builds = %d, want 3", got)
	}
	if d.Len() != 0 {
		t.Errorf("disabled cache len = %d", d.Len())
	}
}

// TestPreparedCacheConcurrentHammer is the concurrency satellite: N
// goroutines fire batch and single solves for overlapping model hashes
// under -race, and the builds counter proves no duplicate prepare work
// happened beyond the single-flight guarantee — with a capacity larger
// than the working set, exactly one build per distinct model.
func TestPreparedCacheConcurrentHammer(t *testing.T) {
	const distinct = 6
	const goroutines = 24
	const repsEach = 4

	s := New(Options{Workers: 4, QueueSize: 256, CacheSize: -1, PreparedCacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	singleBodies := make([][]byte, distinct)
	batchBodies := make([][]byte, distinct)
	for k := 0; k < distinct; k++ {
		var err error
		singleBodies[k], err = json.Marshal(&SolveRequest{Model: testSpec(k), T: 1, Order: 2})
		if err != nil {
			t.Fatal(err)
		}
		batchBodies[k], err = json.Marshal(&BatchRequest{Model: testSpec(k), Items: []BatchItem{
			{Times: []float64{0.5, 1, 1.5}, Order: 2},
			{Times: []float64{2}, Order: 3},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < repsEach; r++ {
				k := (g + r) % distinct
				var url string
				var body []byte
				if g%2 == 0 {
					url, body = ts.URL+"/v1/solve", singleBodies[k]
				} else {
					url, body = ts.URL+"/v1/solve/batch", batchBodies[k]
				}
				resp, err := http.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d rep %d: status %d", g, r, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()

	// The whole hammer prepared each distinct model exactly once: every
	// other request either hit the cache or joined an in-flight build.
	if got := s.prepared.Builds(); got != distinct {
		t.Errorf("prepare executions = %d, want exactly %d (one per distinct model)", got, distinct)
	}
	if hits := s.metrics.PreparedHits.Load(); hits == 0 {
		t.Error("no prepared-cache hits under overlapping load")
	}
	if misses := s.metrics.PreparedMisses.Load(); misses != distinct {
		t.Errorf("prepared misses = %d, want %d", misses, distinct)
	}
}

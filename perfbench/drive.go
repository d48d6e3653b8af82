package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"somrm/internal/server"
)

// A run constructs a server and warms it at least setupMinRepeats times
// and until setupMinSeconds have passed (at most setupMaxRepeats times);
// setup_s is the median, and the last server serves the timed window. The
// repeats make the median of a millisecond set-up as steady as that of a
// one-second one.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 200
	setupMinSeconds = 1.0
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// usage is a process-wide resource reading.
type usage struct {
	cpu   time.Duration // user + system CPU time
	alloc uint64        // cumulative heap bytes allocated
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: s[0].Value.Uint64(),
	}
}

func (u usage) sub(v usage) usage { return usage{u.cpu - v.cpu, u.alloc - v.alloc} }

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// serve sends one request through the handler in-process and returns the
// status and body.
func serve(h http.Handler, r *request) (int, []byte) {
	hr, _ := http.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)) // constant method and path cannot fail
	hr.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, hr)
	return rec.Code, rec.Body.Bytes()
}

// slices is how many equal parts the timed window is cut into. Throughput
// and CPU per request are medians over the parts, so a few seconds of
// interference from outside the process move one part, not the run's
// figure. Allocation is a count, not a time, and is totalled over the whole
// window: the server's scratch pool is dropped and reallocated every few
// GC cycles, which a slice either contains or not.
const slices = 5

// part is one slice of a client's timed window; requests belong to the
// slice in which they started.
type part struct {
	attempted, correct int
	// busy and use sum the handler intervals of a single-client run, which
	// exclude input generation and response checking.
	busy time.Duration
	use  usage
}

// tally is one client's record of the timed window.
type tally struct {
	lat       []time.Duration
	attempted int
	failed    int
	parts     [slices]part
}

func (t *tally) fail(err error) {
	if t.failed < 3 {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", err)
	}
	t.failed++
}

// setUp constructs a server and sends the warm-up requests. It returns the
// server, the wall time from construction to the end of the warm-up, and
// the path the handler took for each warm-up request.
func setUp(w *workload, warm []*request) (*server.Server, time.Duration, []handlerPath, error) {
	start := time.Now()
	s := server.New(w.opts)
	h := s.Handler()
	paths := make([]handlerPath, len(warm))
	for i, r := range warm {
		var err error
		if paths[i], err = serveObserved(s, h, r); err != nil {
			_ = s.Shutdown(context.Background())
			return nil, 0, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, time.Since(start), paths, nil
}

// serveObserved sends one request, checks the response, and reads from
// the server's counters whether it hit the result and prepared caches.
func serveObserved(s *server.Server, h http.Handler, r *request) (handlerPath, error) {
	m := s.Metrics()
	hits, phits := m.CacheHits.Load(), m.PreparedHits.Load()
	err := r.check(serve(h, r))
	return handlerPath{cacheHit: m.CacheHits.Load() > hits, preparedHit: m.PreparedHits.Load() > phits}, err
}

// setUpRepeated runs setUp repeatedly, shutting every server but the last
// down, and returns that server, the median set-up time, and the warm-up
// requests with the handler paths of the last set-up.
func setUpRepeated(w *workload, o *oracle) (*server.Server, float64, []*request, []handlerPath, error) {
	warm, err := w.warmup(o)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	var times []float64
	var s *server.Server
	var paths []handlerPath
	start := time.Now()
	for i := 0; i < setupMaxRepeats && (i < setupMinRepeats || time.Since(start).Seconds() < setupMinSeconds); i++ {
		if s != nil {
			if err := s.Shutdown(context.Background()); err != nil {
				return nil, 0, nil, nil, err
			}
		}
		var d time.Duration
		if s, d, paths, err = setUp(w, warm); err != nil {
			return nil, 0, nil, nil, err
		}
		times = append(times, d.Seconds())
	}
	return s, median(times), warm, paths, nil
}

// runTimed drives the workload's closed-loop clients for the given
// duration and returns the end-to-end metrics.
func runTimed(w *workload, seed int64, seconds float64) (*result, error) {
	o := newOracle()
	streams := make([]stream, w.clients)
	for c := range streams {
		var err error
		if streams[c], err = w.newStream(o, seed, c); err != nil {
			return nil, err
		}
	}
	s, setupS, _, _, err := setUpRepeated(w, o)
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	h := s.Handler()
	runtime.GC()

	tallies := make([]tally, w.clients)
	segmented := w.clients == 1
	window := time.Duration(seconds * float64(time.Second))
	slice := window / slices
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var genErr error
	// marks[i] is the process usage at the start of slice i, read at
	// markAt[i]; marks[slices] is read when the last client has finished.
	var marks [slices + 1]usage
	var markAt [slices + 1]time.Time
	marks[0] = readUsage()
	start := time.Now()
	markAt[0] = start
	deadline := start.Add(window)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < slices; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * slice)))
			marks[i], markAt[i] = readUsage(), time.Now()
		}
	}()
	for c := range tallies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			for time.Now().Before(deadline) {
				r, err := streams[c].next()
				if err != nil {
					errMu.Lock()
					genErr = err
					errMu.Unlock()
					return
				}
				var before usage
				if segmented {
					before = readUsage()
				}
				t0 := time.Now()
				status, body := serve(h, r)
				lat := time.Since(t0)
				p := &t.parts[min(int(t0.Sub(start)/slice), slices-1)]
				if segmented {
					p.use = usageAdd(p.use, readUsage().sub(before))
					p.busy += lat
				}
				t.lat = append(t.lat, lat)
				t.attempted++
				p.attempted++
				if err := r.check(status, body); err != nil {
					t.fail(err)
				} else {
					p.correct++
				}
			}
		}(c)
	}
	wg.Wait()
	marks[slices], markAt[slices] = readUsage(), time.Now()
	if genErr != nil {
		return nil, genErr
	}

	var all tally
	for _, t := range tallies {
		all.lat = append(all.lat, t.lat...)
		all.attempted += t.attempted
		all.failed += t.failed
	}
	if all.attempted == 0 {
		return nil, fmt.Errorf("no request completed in %v", window)
	}
	var thr, cpu []float64
	var alloc uint64
	for i := 0; i < slices; i++ {
		var p part
		for _, t := range tallies {
			p.attempted += t.parts[i].attempted
			p.correct += t.parts[i].correct
		}
		if p.attempted == 0 {
			continue
		}
		dur, use := markAt[i+1].Sub(markAt[i]), marks[i+1].sub(marks[i])
		if segmented {
			dur, use = tallies[0].parts[i].busy, tallies[0].parts[i].use
		}
		thr = append(thr, float64(p.correct)/dur.Seconds())
		cpu = append(cpu, ms(use.cpu)/float64(p.attempted))
		alloc += use.alloc
	}
	p50 := percentile(all.lat, 50)
	tail := percentile(all.lat, w.tailPct)
	fmt.Printf("latency_tail_ms is p%g: %d of %d samples beyond it\n", w.tailPct, beyond(all.lat, tail), len(all.lat))
	return &result{
		Correct:   all.failed == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics: map[string]metric{
			"setup_s":          {setupS, "s"},
			"throughput_rps":   {median(thr), "1/s"},
			"latency_p50_ms":   {ms(p50), "ms"},
			"latency_tail_ms":  {ms(tail), "ms"},
			"cpu_ms_per_req":   {median(cpu), "ms"},
			"alloc_mb_per_req": {float64(alloc) / float64(all.attempted) / (1 << 20), "MB"},
			"peak_rss_mb":      {peakRSSMB(), "MB"},
		},
	}, nil
}

func usageAdd(a, b usage) usage { return usage{a.cpu + b.cpu, a.alloc + b.alloc} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile of the samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// beyond counts the samples strictly above v.
func beyond(samples []time.Duration, v time.Duration) int {
	n := 0
	for _, d := range samples {
		if d > v {
			n++
		}
	}
	return n
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

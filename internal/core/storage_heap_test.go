package core

import (
	"runtime"
	"testing"
)

// TestPrepareHoldsOnlySweepStorage pins the prepared model's memory on
// the 100,001-state birth-death chain: Prepare builds Q' straight into
// the band the sweep streams, so Prepare plus one order-3 solve keep at
// most the band and the two reward vectors R' and ½S' live (with 10%
// slack), and Prepare itself allocates no intermediate copy of the
// generator.
func TestPrepareHoldsOnlySweepStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("100,001-state model")
	}
	const n = 100_001
	m := benchModel(t, n, false)
	var before, prepared, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&prepared)
	if _, err := p.AccumulatedReward(1e-4, 3, nil); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)

	band := int64(p.u.qPrime.Bytes())
	t.Logf("Prepare allocated %.2f MB; Prepare and one solve keep %.2f MB live (band %.2f MB)",
		float64(prepared.TotalAlloc-before.TotalAlloc)/(1<<20),
		float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/(1<<20), float64(band)/(1<<20))
	if alloc := prepared.TotalAlloc - before.TotalAlloc; alloc > 6<<20 {
		t.Errorf("Prepare allocated %.2f MB, want at most 6 MB", float64(alloc)/(1<<20))
	}
	limit := 1.1 * float64(band+16*n)
	if live := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc)); live > limit {
		t.Errorf("Prepare and one solve keep %.2f MB live, want at most %.2f MB (band %.2f MB + R', ½S')",
			live/(1<<20), limit/(1<<20), float64(band)/(1<<20))
	}
}

package sigmacache

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentLookup hammers one cache from many goroutines (run under
// -race to prove the lock-free ladder read and atomic counters are sound) and checks
// every answer is the correct floor rung with the distance guarantee intact.
func TestConcurrentLookup(t *testing.T) {
	hPrime := 0.01
	c := newCache(t, Config{Delta: 0.05, N: 100, DistanceConstraint: hPrime}, 0.5, 8)

	const goroutines = 16
	const lookups = 2000
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < lookups; i++ {
				sigma := 0.5 + rng.Float64()*7.5
				e, ok := c.Lookup(sigma)
				if !ok {
					errs <- "miss inside covered range"
					return
				}
				if e.Sigma > sigma*(1+1e-9) {
					errs <- "returned rung above query sigma"
					return
				}
				h, err := hellingerEqualMean(e.Sigma, sigma)
				if err != nil || h > hPrime*(1+1e-9) {
					errs <- "distance constraint violated"
					return
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	st := c.Stats()
	if st.Hits != goroutines*lookups {
		t.Errorf("hits = %d, want %d (atomic counter lost updates)", st.Hits, goroutines*lookups)
	}
	if st.Misses != 0 {
		t.Errorf("misses = %d, want 0", st.Misses)
	}
}

// TestConcurrentLookupMixedHitMiss interleaves in-range and out-of-range
// sigmas concurrently and checks the counters add up exactly.
func TestConcurrentLookupMixedHitMiss(t *testing.T) {
	c := newCache(t, Config{Delta: 0.1, N: 20, DistanceConstraint: 0.05}, 1, 10)
	const goroutines = 8
	const perKind = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perKind; i++ {
				c.Lookup(5)   // hit
				c.Lookup(0.5) // miss (below range)
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits != goroutines*perKind || st.Misses != goroutines*perKind {
		t.Errorf("stats = %+v, want %d hits and %d misses",
			st, goroutines*perKind, goroutines*perKind)
	}
}

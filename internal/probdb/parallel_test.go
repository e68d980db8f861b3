package probdb

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/view"
)

// Property tests pinning the parallel and fused kernels byte-identical —
// values AND error shapes — to the row-at-a-time oracle and to the
// sequential columnar kernels, at every tested worker count, including
// under concurrent AppendRows. reflect.DeepEqual, no tolerance: the merge
// is deterministic or it is broken.

// withParCutoff lowers the sequential fast-path threshold for the duration
// of a test so the worker pool engages on small tables.
func withParCutoff(tb testing.TB, n int) {
	tb.Helper()
	old := parCutoffRows
	parCutoffRows = n
	tb.Cleanup(func() { parCutoffRows = old })
}

// denseView is randomView minus the all-zero-mass failure mode: every group
// keeps at least one positive-probability row, so Expected-family kernels
// succeed and the tests below can compare values rather than errors.
// Zero-width point masses stay in.
func denseView(rng *rand.Rand, tuples int) *storage.ProbTable {
	p := &storage.ProbTable{Name: "pv", Omega: view.Omega{Delta: 0.5, N: 4}}
	t := int64(0)
	for i := 0; i < tuples; i++ {
		t += 1 + int64(rng.Intn(3))
		n := 2 + rng.Intn(4)
		base := rng.Float64() * 10
		rows := make([]view.Row, 0, n)
		for l := 0; l < n; l++ {
			lo := base + float64(l)*0.5
			hi := lo + 0.5
			if rng.Intn(8) == 0 {
				hi = lo // zero-width point mass
			}
			prob := 0.05 + rng.Float64()/float64(n)
			rows = append(rows, view.Row{T: t, Lambda: l - n/2, Lo: lo, Hi: hi, Prob: prob})
		}
		p.AppendRows(rows)
	}
	return p
}

// testWorkerCounts is the required sweep: sequential, minimal pool, a count
// that never divides the chunk budget evenly, and whatever this box has.
func testWorkerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// checkParallelKernelsMatch compares the three parallel projections against
// the row oracle for one (window, range, workers) combination.
func checkParallelKernelsMatch(t *testing.T, p *storage.ProbTable, tLo, tHi int64, lo, hi float64, workers int) {
	t.Helper()

	gotE, _, errE := ExpectedSeriesPar(p, tLo, tHi, workers)
	wantE, werrE := rowExpectedSeries(p, tLo, tHi)
	sameErr(t, "ExpectedSeriesPar", errE, werrE)
	if !reflect.DeepEqual(gotE, wantE) {
		t.Fatalf("ExpectedSeriesPar(%d,%d,w=%d) diverged from row oracle", tLo, tHi, workers)
	}

	gotP, _, errP := ProbSeriesPar(p, tLo, tHi, lo, hi, workers)
	wantP, werrP := rowProbSeries(p, tLo, tHi, lo, hi)
	sameErr(t, "ProbSeriesPar", errP, werrP)
	if !reflect.DeepEqual(gotP, wantP) {
		t.Fatalf("ProbSeriesPar(%d,%d,%v,%v,w=%d) diverged from row oracle", tLo, tHi, lo, hi, workers)
	}

	gotC, _, errC := ExpectedCountPar(p, tLo, tHi, lo, hi, workers)
	wantC, werrC := rowExpectedCount(p, tLo, tHi, lo, hi)
	sameErr(t, "ExpectedCountPar", errC, werrC)
	if gotC != wantC {
		t.Fatalf("ExpectedCountPar(w=%d) = %v, oracle %v", workers, gotC, wantC)
	}
}

// checkFusedMatchesIndependent compares one fused pass against its three
// single-statistic projections on the sequential fast path. When the fused
// pass succeeds every selected statistic must match its projection exactly;
// when it fails, at least one projection must fail with the same sentinel (the fused
// pass is all-or-nothing, so it cannot be required to fail identically to
// each — e.g. a zero-mass group fails Expected but not Prob).
func checkFusedMatchesIndependent(t *testing.T, p *storage.ProbTable, tLo, tHi int64, lo, hi float64, want FusedStats, workers int) {
	t.Helper()
	fr, _, errF := FusedSeries(p, tLo, tHi, lo, hi, want, workers)

	var errs []error
	if want.Expected {
		wantE, _, err := ExpectedSeriesPar(p, tLo, tHi, 1)
		errs = append(errs, err)
		if errF == nil && (err != nil || !reflect.DeepEqual(fr.Expected, wantE)) {
			t.Fatalf("fused Expected diverged (w=%d): err=%v", workers, err)
		}
	}
	if want.Prob {
		wantP, _, err := ProbSeriesPar(p, tLo, tHi, lo, hi, 1)
		errs = append(errs, err)
		if errF == nil && (err != nil || !reflect.DeepEqual(fr.Prob, wantP)) {
			t.Fatalf("fused Prob diverged (w=%d): err=%v", workers, err)
		}
	}
	if want.Count {
		wantC, _, err := ExpectedCountPar(p, tLo, tHi, lo, hi, 1)
		errs = append(errs, err)
		if errF == nil && (err != nil || fr.Count != wantC) {
			t.Fatalf("fused Count = %v, standalone %v (w=%d, err=%v)", fr.Count, wantC, workers, err)
		}
	}
	if errF != nil {
		matched := false
		for _, err := range errs {
			if err != nil &&
				errors.Is(errF, ErrNoRows) == errors.Is(err, ErrNoRows) &&
				errors.Is(errF, ErrBadArg) == errors.Is(err, ErrBadArg) {
				matched = true
			}
		}
		if !matched {
			t.Fatalf("fused failed with %v but no standalone kernel failed alike (%v)", errF, errs)
		}
	}
}

// TestParallelKernelsMatchRowOracle is the main sweep: random tables
// (including zero-width point masses and zero-probability rows), random
// windows including empty and inverted ones, invalid value ranges, at
// worker counts {1, 2, 7, GOMAXPROCS} with the pool forced on.
func TestParallelKernelsMatchRowOracle(t *testing.T) {
	withParCutoff(t, 0)
	rng := rand.New(rand.NewSource(1234))
	subsets := []FusedStats{
		{Expected: true, Prob: true, Count: true},
		{Expected: true, Prob: true},
		{Expected: true, Count: true},
		{Prob: true, Count: true},
	}
	for trial := 0; trial < 20; trial++ {
		p := randomView(rng, 1+rng.Intn(40))
		times := p.Times()
		maxT := times[len(times)-1]
		for q := 0; q < 8; q++ {
			tLo := int64(rng.Intn(int(maxT)+2)) - 1
			tHi := tLo + int64(rng.Intn(int(maxT)+2)) - 1 // occasionally inverted
			lo := rng.Float64() * 12
			hi := lo + rng.Float64()*3
			if rng.Intn(10) == 0 {
				lo, hi = hi, lo // invalid range: must reject like the oracle
			}
			for _, w := range testWorkerCounts() {
				checkParallelKernelsMatch(t, p, tLo, tHi, lo, hi, w)
				checkFusedMatchesIndependent(t, p, tLo, tHi, lo, hi, subsets[q%len(subsets)], w)
			}
		}
	}
}

// TestParallelDeterministicAcrossWorkerCounts pins the byte-identical merge
// on a window large enough to engage the pool at the production cutoff: the
// output at every worker count equals the workers=1 output exactly.
func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := denseView(rng, 4000) // ~14k rows, comfortably above parCutoffRows
	if p.NumRows() < parCutoffRows {
		t.Fatalf("test view holds %d rows, below the %d cutoff", p.NumRows(), parCutoffRows)
	}
	maxT := p.Times()[len(p.Times())-1]

	base, basePlan, err := ExpectedSeriesPar(p, 0, maxT, 1)
	if err != nil {
		t.Fatal(err)
	}
	if basePlan != seqPlan {
		t.Fatalf("workers=1 plan = %+v, want sequential", basePlan)
	}
	baseF, _, err := FusedSeries(p, 0, maxT, 2, 6, FusedStats{Expected: true, Prob: true, Count: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 7, 16} {
		got, plan, err := ExpectedSeriesPar(p, 0, maxT, w)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Workers <= 1 || plan.Chunks <= 1 {
			t.Fatalf("workers=%d did not engage the pool: %+v", w, plan)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: series not byte-identical to sequential", w)
		}
		gotF, _, err := FusedSeries(p, 0, maxT, 2, 6, FusedStats{Expected: true, Prob: true, Count: true}, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotF, baseF) {
			t.Fatalf("workers=%d: fused result not byte-identical to sequential", w)
		}
	}
}

// TestParallelErrorShapes pins nil-view, empty-selection, ErrNoRows
// precedence over ErrBadArg, and zero-mass propagation out of an arbitrary
// chunk.
func TestParallelErrorShapes(t *testing.T) {
	withParCutoff(t, 0)

	if _, _, err := ExpectedSeriesPar(nil, 0, 10, 4); !errors.Is(err, ErrBadArg) {
		t.Errorf("nil view: %v", err)
	}
	if _, _, err := FusedSeries(nil, 0, 10, 0, 1, FusedStats{Prob: true}, 4); !errors.Is(err, ErrBadArg) {
		t.Errorf("nil view: %v", err)
	}
	p := denseView(rand.New(rand.NewSource(5)), 30)
	maxT := p.Times()[len(p.Times())-1]
	if _, _, err := FusedSeries(p, 0, maxT, 0, 1, FusedStats{}, 4); !errors.Is(err, ErrBadArg) {
		t.Errorf("no statistics selected: %v", err)
	}
	// Empty window + invalid value range: no-rows wins, like the row path.
	if _, _, err := ProbSeriesPar(p, maxT+5, maxT+9, 4, 2, 4); !errors.Is(err, ErrNoRows) {
		t.Errorf("empty window with bad range: %v", err)
	}
	if _, _, err := FusedSeries(p, maxT+5, maxT+9, 4, 2, FusedStats{Expected: true, Prob: true, Count: true}, 4); !errors.Is(err, ErrNoRows) {
		t.Errorf("empty window with bad range (fused): %v", err)
	}
	// Non-empty window + invalid value range: bad-arg.
	if _, _, err := ExpectedCountPar(p, 0, maxT, 4, 2, 4); !errors.Is(err, ErrBadArg) {
		t.Errorf("bad range: %v", err)
	}
	// Expected alone takes no value range, so a bad one must not fail it.
	if _, _, err := FusedSeries(p, 0, maxT, 4, 2, FusedStats{Expected: true}, 4); err != nil {
		t.Errorf("expected-only with unused bad range: %v", err)
	}

	// A zero-mass tuple deep in the window fails the pooled kernel with the
	// same sentinel the sequential fast path reports, at any worker count.
	z := &storage.ProbTable{Name: "pv", Omega: view.Omega{Delta: 1, N: 1}}
	for i := 0; i < 200; i++ {
		z.AppendRows([]view.Row{{T: int64(i), Lambda: 0, Lo: 0, Hi: 1, Prob: 1}})
	}
	z.AppendRows([]view.Row{{T: 200, Lambda: 0, Lo: 0, Hi: 1, Prob: 0}}) // zero mass
	_, _, wantErr := ExpectedSeriesPar(z, 0, 300, 1)
	if wantErr == nil {
		t.Fatal("sequential kernel accepted the zero-mass tuple")
	}
	for _, w := range testWorkerCounts() {
		_, _, err := ExpectedSeriesPar(z, 0, 300, w)
		sameErr(t, "zero-mass propagation", err, wantErr)
	}
}

// TestScanPlanFastPath pins the cutoff contract: small windows never pay
// pool overhead, large ones engage it, and the worker count clamps to the
// chunk count.
func TestScanPlanFastPath(t *testing.T) {
	p := denseView(rand.New(rand.NewSource(3)), 50) // far below parCutoffRows
	maxT := p.Times()[len(p.Times())-1]
	_, plan, err := ExpectedSeriesPar(p, 0, maxT, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan != seqPlan {
		t.Fatalf("small window took the pool: %+v", plan)
	}

	withParCutoff(t, 0)
	_, plan, err = ExpectedSeriesPar(p, 0, maxT, 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workers < 2 || plan.Chunks < plan.Workers {
		t.Fatalf("forced pool plan: %+v", plan)
	}
	// Two groups can carry at most two chunks; 8 requested workers clamp.
	_, plan, err = ExpectedSeriesPar(p, p.Times()[0], p.Times()[1], 8)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workers > plan.Chunks || plan.Chunks > 2 {
		t.Fatalf("two-group window plan: %+v", plan)
	}
}

// TestParallelKernelsUnderConcurrentAppend runs the pooled kernels while
// AppendRows extends the view; under -race this pins that workers only
// touch the column slices inside the RangeCols read lock. Every complete
// tuple has E = 1.0 by construction, so torn reads are visible in values.
func TestParallelKernelsUnderConcurrentAppend(t *testing.T) {
	withParCutoff(t, 0)
	const tuples = 300
	p := &storage.ProbTable{Name: "pv", Omega: view.Omega{Delta: 1, N: 2}}
	p.AppendRows([]view.Row{
		{T: 0, Lambda: -1, Lo: 0, Hi: 1, Prob: 0.5},
		{T: 0, Lambda: 0, Lo: 1, Hi: 2, Prob: 0.5},
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 1; i <= tuples; i++ {
			p.AppendRows([]view.Row{
				{T: int64(i), Lambda: -1, Lo: 0, Hi: 1, Prob: 0.5},
				{T: int64(i), Lambda: 0, Lo: 1, Hi: 2, Prob: 0.5},
			})
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				series, _, err := ExpectedSeriesPar(p, 0, tuples, 4)
				if err != nil {
					t.Error(err)
					return
				}
				for _, pt := range series {
					if math.Abs(pt.Value-1.0) > 1e-12 {
						t.Errorf("torn tuple at t=%d: E=%v", pt.T, pt.Value)
						return
					}
				}
				fr, _, err := FusedSeries(p, 0, tuples, 0, 2, FusedStats{Expected: true, Prob: true, Count: true}, 4)
				if err != nil {
					t.Error(err)
					return
				}
				// Every complete tuple lies fully inside (0, 2].
				if got := fr.Count; math.Abs(got-float64(len(fr.Prob))) > 1e-9 {
					t.Errorf("fused count %v over %d tuples", got, len(fr.Prob))
					return
				}
			}
		}()
	}
	wg.Wait()
}

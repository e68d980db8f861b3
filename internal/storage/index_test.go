package storage

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/view"
)

// legacyRowsAt is the pre-index flat-scan implementation of RowsAt: binary
// search over the raw row slice, then append-copy the run. The index path
// must stay byte-identical to it.
func legacyRowsAt(rows []view.Row, t int64) []view.Row {
	i := sort.Search(len(rows), func(i int) bool { return rows[i].T >= t })
	var out []view.Row
	for ; i < len(rows) && rows[i].T == t; i++ {
		out = append(out, rows[i])
	}
	return out
}

// legacyRowsRange is the pre-index flat-scan implementation of RowsRange.
func legacyRowsRange(rows []view.Row, tLo, tHi int64) []view.Row {
	lo := sort.Search(len(rows), func(i int) bool { return rows[i].T >= tLo })
	hi := sort.Search(len(rows), func(i int) bool { return rows[i].T > tHi })
	out := make([]view.Row, hi-lo)
	copy(out, rows[lo:hi])
	return out
}

// legacyTimes is the pre-index full-scan implementation of Times.
func legacyTimes(rows []view.Row) []int64 {
	var out []int64
	var last int64
	for i, r := range rows {
		if i == 0 || r.T != last {
			out = append(out, r.T)
			last = r.T
		}
	}
	return out
}

// randomTable builds a ProbTable with random group sizes (including the
// occasional empty gap between timestamps) via AppendRows batches, plus the
// flat row slice for the legacy reference.
func randomTable(rng *rand.Rand, tuples int) (*ProbTable, []view.Row) {
	p := &ProbTable{Name: "pv", Omega: view.Omega{Delta: 1, N: 4}}
	var flat []view.Row
	t := int64(0)
	var batch []view.Row
	for i := 0; i < tuples; i++ {
		t += 1 + int64(rng.Intn(3)) // leave gaps so range queries straddle holes
		n := 1 + rng.Intn(5)        // ragged group sizes, not just Omega.N
		for lambda := 0; lambda < n; lambda++ {
			batch = append(batch, view.Row{
				T: t, Lambda: lambda - n/2,
				Lo: float64(lambda), Hi: float64(lambda) + 1,
				Prob: rng.Float64(),
			})
		}
		if rng.Intn(3) == 0 { // vary append batch boundaries
			p.AppendRows(batch)
			flat = append(flat, batch...)
			batch = batch[:0]
		}
	}
	p.AppendRows(batch)
	flat = append(flat, batch...)
	return p, flat
}

func TestGroupIndexMatchesFlatScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		p, flat := randomTable(rng, rng.Intn(40))
		times := p.Times()
		if !reflect.DeepEqual(times, legacyTimes(flat)) {
			t.Fatalf("trial %d: Times mismatch", trial)
		}
		maxT := int64(1)
		if len(times) > 0 {
			maxT = times[len(times)-1]
		}
		for q := 0; q < 30; q++ {
			at := int64(rng.Intn(int(maxT) + 2))
			if got, want := p.RowsAt(at), legacyRowsAt(flat, at); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: RowsAt(%d) = %v, want %v", trial, at, got, want)
			}
			lo := int64(rng.Intn(int(maxT)+2)) - 1
			hi := lo + int64(rng.Intn(int(maxT)+2))
			if got := p.RowsRange(lo, hi); !reflect.DeepEqual(got, legacyRowsRange(flat, lo, hi)) {
				t.Fatalf("trial %d: RowsRange(%d,%d) = %v; want %v", trial, lo, hi, got, legacyRowsRange(flat, lo, hi))
			}
			// The iterator must visit exactly the flat-scan rows, in order.
			var iterated []view.Row
			if err := p.ForEachGroupCols(lo, hi, func(g GroupCols) error {
				for i := range g.Prob {
					iterated = append(iterated, view.Row{T: g.T, Lambda: g.Lambda[i], Lo: g.Lo[i], Hi: g.Hi[i], Prob: g.Prob[i]})
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if want := legacyRowsRange(flat, lo, hi); len(iterated) != len(want) ||
				(len(iterated) > 0 && !reflect.DeepEqual(iterated, want)) {
				t.Fatalf("trial %d: ForEachGroupCols(%d,%d) yielded %d rows, want %d",
					trial, lo, hi, len(iterated), len(want))
			}
		}
	}
}

// groupsIn copies the group-index entries that RangeCols hands its callback
// for [tLo, tHi].
func groupsIn(t *testing.T, p *ProbTable, tLo, tHi int64) []TimeGroup {
	t.Helper()
	var out []TimeGroup
	if err := p.RangeCols(tLo, tHi, func(groups []TimeGroup, _ Cols) error {
		out = append([]TimeGroup{}, groups...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGroupsRangeLayout(t *testing.T) {
	p := &ProbTable{Name: "pv"}
	p.AppendRows([]view.Row{
		{T: 10, Lambda: 0}, {T: 10, Lambda: 1},
		{T: 20, Lambda: 0},
		{T: 30, Lambda: 0}, {T: 30, Lambda: 1}, {T: 30, Lambda: 2},
	})
	got := groupsIn(t, p, 10, 30)
	want := []TimeGroup{{T: 10, Off: 0, Len: 2}, {T: 20, Off: 2, Len: 1}, {T: 30, Off: 3, Len: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("groups = %+v, want %+v", got, want)
	}
	if got := groupsIn(t, p, 11, 19); len(got) != 0 {
		t.Fatalf("empty range returned %+v", got)
	}
	if p.NumTimes() != 3 {
		t.Fatalf("NumTimes = %d", p.NumTimes())
	}
}

// TestInvertedRangeIsEmpty pins that an inverted time range (tLo > tHi,
// remotely reachable via /views/{v}/rangeprob?from=5&to=3) yields an empty
// result from every accessor instead of a slice-bounds panic.
func TestInvertedRangeIsEmpty(t *testing.T) {
	p := &ProbTable{Name: "pv"}
	for i := int64(1); i <= 6; i++ {
		p.AppendRows([]view.Row{{T: i, Lambda: 0, Prob: 1}})
	}
	// tLo=5, tHi=3 makes the raw binary searches cross (lo=4, hi=3).
	if got := p.RowsRange(5, 3); len(got) != 0 {
		t.Fatalf("RowsRange(5,3) = %v", got)
	}
	if got := groupsIn(t, p, 5, 3); len(got) != 0 {
		t.Fatalf("RangeCols(5,3) groups = %v", got)
	}
	called := false
	if err := p.ForEachGroupCols(5, 3, func(GroupCols) error {
		called = true
		return nil
	}); err != nil || called {
		t.Fatalf("ForEachGroupCols(5,3): err=%v called=%v", err, called)
	}
}

// TestGroupIndexUnderConcurrentAppend races the zero-copy iterator and the
// point/range accessors against AppendRows; run under -race this pins the
// index maintenance inside the write lock. Readers must always see
// whole batches (the append granularity) with groups intact.
func TestGroupIndexUnderConcurrentAppend(t *testing.T) {
	const (
		batches = 200
		perT    = 4
	)
	p := &ProbTable{Name: "pv", Omega: view.Omega{Delta: 1, N: perT}}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < batches; i++ {
			rows := make([]view.Row, perT)
			for l := range rows {
				rows[l] = view.Row{T: int64(i + 1), Lambda: l, Prob: 1.0 / perT}
			}
			p.AppendRows(rows)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := p.ForEachGroupCols(0, batches+1, func(g GroupCols) error {
					if len(g.Prob) != perT {
						t.Errorf("torn group at t=%d: %d rows", g.T, len(g.Prob))
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				p.RowsAt(int64(batches / 2))
				p.Times()
				p.RangeSize(0, batches+1)
			}
		}()
	}
	wg.Wait()
	if n := p.NumTimes(); n != batches {
		t.Fatalf("NumTimes = %d, want %d", n, batches)
	}
}

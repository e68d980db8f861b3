package storage

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/view"
)

// Tests for the column iterators: the spans RangeCols and ForEachGroupCols
// hand out must agree with the rows the table materialises, through online
// appends and lazy loads. TestTableMatchesRowModel (model_test.go) is the
// exhaustive version against an independent model.

// checkColumnsMirrorRows walks the whole table through RangeCols and
// verifies every column entry against the row SnapshotRows materialises.
func checkColumnsMirrorRows(t *testing.T, p *ProbTable) {
	t.Helper()
	rows := p.SnapshotRows()
	var minT, maxT int64 = -1 << 62, 1 << 62
	err := p.RangeCols(minT, maxT, func(groups []TimeGroup, c Cols) error {
		if len(c.Lo) != len(rows) || len(c.Hi) != len(rows) || len(c.Prob) != len(rows) {
			t.Fatalf("column lengths %d/%d/%d, want %d rows", len(c.Lo), len(c.Hi), len(c.Prob), len(rows))
		}
		n := 0
		for _, g := range groups {
			for i := g.Off; i < g.Off+g.Len; i++ {
				// Lambda is not a scan column; ForEachGroupCols carries it.
				got := view.Row{T: g.T, Lambda: rows[i].Lambda, Lo: c.Lo[i], Hi: c.Hi[i], Prob: c.Prob[i]}
				if got != rows[i] {
					t.Fatalf("column %d = %+v, row = %+v", i, got, rows[i])
				}
			}
			n += g.Len
		}
		if n != len(rows) {
			t.Fatalf("groups cover %d rows, want %d", n, len(rows))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func randomRows(rng *rand.Rand, tuples int) []view.Row {
	var rows []view.Row
	t := int64(0)
	for i := 0; i < tuples; i++ {
		t += 1 + int64(rng.Intn(3))
		n := 1 + rng.Intn(4)
		for l := 0; l < n; l++ {
			lo := rng.Float64() * 10
			hi := lo + rng.Float64()
			if rng.Intn(6) == 0 {
				hi = lo // zero-width point mass
			}
			rows = append(rows, view.Row{T: t, Lambda: l - n/2, Lo: lo, Hi: hi, Prob: rng.Float64()})
		}
	}
	return rows
}

func TestColumnsMirrorRowsIncrementalAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := &ProbTable{Name: "pv"}
	for batch := 0; batch < 20; batch++ {
		rows := randomRows(rng, 1+rng.Intn(5))
		// Shift each batch past the previous one to keep timestamps ascending.
		var last int64
		if ts := p.Times(); len(ts) > 0 {
			last = ts[len(ts)-1]
		}
		for i := range rows {
			rows[i].T += last
		}
		if err := p.AppendRows(rows); err != nil {
			t.Fatal(err)
		}
		checkColumnsMirrorRows(t, p)
	}
}

func TestColumnsAfterLazyLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := randomRows(rng, 8)
	p := &ProbTable{Name: "pv"}
	p.SetLoader(len(rows), func() ([]view.Row, error) {
		out := make([]view.Row, len(rows))
		copy(out, rows)
		return out, nil
	})
	if got := p.NumRows(); got != len(rows) {
		t.Fatalf("NumRows before load = %d, want %d", got, len(rows))
	}
	checkColumnsMirrorRows(t, p)

	// A failed load surfaces through the column iterators.
	bad := &ProbTable{Name: "pv2"}
	wantErr := errors.New("segment gone")
	bad.SetLoader(3, func() ([]view.Row, error) { return nil, wantErr })
	err := bad.RangeCols(0, 100, func([]TimeGroup, Cols) error { return nil })
	if !errors.Is(err, wantErr) {
		t.Fatalf("RangeCols on failed load: %v", err)
	}
	err = bad.ForEachGroupCols(0, 100, func(GroupCols) error { return nil })
	if !errors.Is(err, wantErr) {
		t.Fatalf("ForEachGroupCols on failed load: %v", err)
	}
}

// TestColumnsUnderConcurrentAppend hammers the column readers while a
// writer appends; under -race this pins the locking, and every observed
// group must be a whole batch with its columns in step.
func TestColumnsUnderConcurrentAppend(t *testing.T) {
	p := &ProbTable{Name: "pv"}
	const tuples = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 1; i <= tuples; i++ {
			p.AppendRows([]view.Row{
				{T: int64(i), Lambda: -1, Lo: float64(i), Hi: float64(i) + 1, Prob: 0.5},
				{T: int64(i), Lambda: 0, Lo: float64(i) + 1, Hi: float64(i) + 2, Prob: 0.5},
			})
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := p.ForEachGroupCols(0, tuples, func(g GroupCols) error {
					if len(g.Lo) != 2 || len(g.Lambda) != 2 {
						t.Errorf("t=%d: torn group of %d rows", g.T, len(g.Lo))
						return nil
					}
					if g.Lo[0] != float64(g.T) || g.Prob[0] != 0.5 || g.Lambda[1] != 0 {
						t.Errorf("t=%d: columns out of step", g.T)
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkColumnsMirrorRows(t, p)
}

package probdb

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/view"
)

// allocView builds a small multi-tuple view for the allocation tests:
// large enough to exercise the group loop, small enough to keep
// AllocsPerRun's 100 rounds cheap.
func allocView(tb testing.TB) *storage.ProbTable {
	tb.Helper()
	const perT = 4
	p := &storage.ProbTable{Name: "alloc_pv", Omega: view.Omega{Delta: 0.5, N: perT}}
	rows := make([]view.Row, 0, perT)
	for t := 1; t <= 64; t++ {
		rows = rows[:0]
		for l := 0; l < perT; l++ {
			lo := float64(t%7) + float64(l)*0.5
			rows = append(rows, view.Row{
				T: int64(t), Lambda: l - perT/2,
				Lo: lo, Hi: lo + 0.5, Prob: 1.0 / perT,
			})
		}
		p.AppendRows(rows)
	}
	return p
}

// TestKernelReducersAllocFree pins the //tspdb:kernel contract at runtime:
// the scanning reducers and the point kernel complete without a single
// heap allocation. hotpathalloc proves the same property statically; this
// is the dynamic witness (and the one that catches escapes the syntactic
// rules cannot see).
func TestKernelReducersAllocFree(t *testing.T) {
	p := allocView(t)
	// Touch the lazy group index and columns outside the measured region.
	if _, _, err := AllInRangePlan(p, 1, 64, 0, 100); err != nil {
		t.Fatal(err)
	}

	kernels := []struct {
		name string
		call func() error
	}{
		{"AnyInRange", func() error { _, _, err := AnyInRangePlan(p, 1, 64, 2, 5); return err }},
		{"AllInRange", func() error { _, _, err := AllInRangePlan(p, 1, 64, 0, 100); return err }},
		{"RangeProbAt", func() error { _, err := RangeProbAt(p, 32, 0, 100); return err }},
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			var err error
			allocs := testing.AllocsPerRun(100, func() {
				if e := k.call(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%s allocates %.1f times per run, want 0", k.name, allocs)
			}
		})
	}
}

package core

import (
	"reflect"
	"testing"

	"repro/internal/view"
)

// TestEngineParallelismDeterministic proves the Parallelism knob changes
// only wall-clock behaviour: a CREATE VIEW executed by a sequential engine
// and by parallel engines materialises identical rows.
func TestEngineParallelismDeterministic(t *testing.T) {
	if p := NewEngine().Parallelism(); p != 0 {
		t.Fatalf("default parallelism = %d, want 0 (all cores)", p)
	}

	const stmt = `CREATE VIEW pv AS DENSITY r OVER t
		OMEGA delta=0.5, n=6 WINDOW 90 CACHE DISTANCE 0.01
		FROM raw_values WHERE t >= 100 AND t <= 250`

	build := func(parallelism int) []view.Row {
		t.Helper()
		e := NewEngineWith(Config{Parallelism: parallelism})
		if e.Parallelism() != parallelism {
			t.Fatalf("Parallelism() = %d, want %d", e.Parallelism(), parallelism)
		}
		if err := e.RegisterSeries("raw_values", arSeries(400, 42)); err != nil {
			t.Fatal(err)
		}
		res, err := e.Exec(stmt)
		if err != nil {
			t.Fatal(err)
		}
		return res.View.SnapshotRows()
	}

	want := build(1)
	for _, p := range []int{0, 2, 8} {
		if got := build(p); !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d produced different view rows", p)
		}
	}
}

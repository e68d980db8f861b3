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

// TestSetParallelism covers the runtime knob used by cmd/tspdb.
func TestSetParallelism(t *testing.T) {
	e := NewEngine()
	if e.Parallelism() != 0 {
		t.Fatalf("default parallelism = %d, want 0 (all cores)", e.Parallelism())
	}
	e.SetParallelism(3)
	if e.Parallelism() != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", e.Parallelism())
	}
}

// TestSetParallelismConcurrent is the regression test for the data race
// lockcheck surfaced: SetParallelism wrote cfg.Parallelism unsynchronised
// while Exec and OpenStream read it. The knob is atomic now; under -race
// (the CI test job) this test fails on the old code.
func TestSetParallelismConcurrent(t *testing.T) {
	e := NewEngine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			e.SetParallelism(i % 4)
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := e.Exec("SHOW TABLES"); err != nil {
			t.Error(err)
		}
	}
	<-done
	e.SetParallelism(2)
	if got := e.Parallelism(); got != 2 {
		t.Fatalf("Parallelism() = %d, want 2", got)
	}
}

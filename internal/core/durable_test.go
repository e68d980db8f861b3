package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// TestOpenEngineInMemory pins the undecorated path: no data directory
// means no store, and Checkpoint is a usage error, not a silent no-op.
func TestOpenEngineInMemory(t *testing.T) {
	e, err := OpenEngine(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Durable() {
		t.Fatal("engine without DataDir reports durable")
	}
	if err := e.Checkpoint(); !errors.Is(err, ErrBadArg) {
		t.Fatalf("Checkpoint on in-memory engine = %v, want ErrBadArg", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close on in-memory engine = %v", err)
	}
}

// TestDurableEngineLifecycle drives the full open → ingest → close →
// recover cycle through the engine API against a real directory: a
// recovered engine must hold the identical raw table and view rows, and a
// stream re-opened on it must continue exactly where the old one stopped.
func TestDurableEngineLifecycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	cfg := Config{DataDir: dir, Parallelism: 1}

	e, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Durable() {
		t.Fatal("engine with DataDir not durable")
	}

	const h = 16
	vals := make([]float64, h)
	for i := range vals {
		vals[i] = 20 + 2*math.Sin(float64(i)/3)
	}
	if err := e.RegisterSeries("sensor", timeseries.FromValues(vals)); err != nil {
		t.Fatal(err)
	}
	stream, err := e.OpenStream(StreamConfig{
		Source: "sensor", ViewName: "pv", H: h, Omega: view.Omega{Delta: 0.5, N: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tt := int64(h + 1 + i)
		if _, err := stream.Step(timeseries.Point{T: tt, V: 20 + 2*math.Sin(float64(tt)/3)}); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	pv, err := e.View("pv")
	if err != nil {
		t.Fatal(err)
	}
	wantRows := pv.SnapshotRows()
	wantRaw, _ := e.DB().RawLen("sensor")
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close also closed the stream: further steps are rejected.
	if _, err := stream.Step(timeseries.Point{T: 99, V: 1}); !errors.Is(err, ErrBadArg) {
		t.Fatalf("step after engine close = %v, want ErrBadArg", err)
	}

	e2, err := OpenEngine(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer e2.Close()
	if n, _ := e2.DB().RawLen("sensor"); n != wantRaw {
		t.Fatalf("recovered raw len = %d, want %d", n, wantRaw)
	}
	pv2, err := e2.View("pv")
	if err != nil {
		t.Fatal(err)
	}
	if got := pv2.SnapshotRows(); !reflect.DeepEqual(got, wantRows) {
		t.Fatalf("recovered view rows differ:\n  got  %d rows\n  want %d rows", len(got), len(wantRows))
	}

	// The recovered catalog is live, not a read-only restore: a fresh
	// stream warms up from the recovered tail and extends the same view.
	if err := e2.DB().Drop("pv"); err != nil {
		t.Fatal(err)
	}
	s2, err := e2.OpenStream(StreamConfig{
		Source: "sensor", ViewName: "pv", H: h, Omega: view.Omega{Delta: 0.5, N: 2},
	})
	if err != nil {
		t.Fatalf("reopen stream on recovered engine: %v", err)
	}
	if _, err := s2.Step(timeseries.Point{T: int64(wantRaw + 1), V: 21}); err != nil {
		t.Fatalf("step on recovered engine: %v", err)
	}
	if err := e2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint on recovered engine: %v", err)
	}
}

// TestOpenEngineFailsOnCorruptViewSegment: a checkpointed view whose
// segment does not verify fails OpenEngine, naming the view and the file,
// so no engine ever serves a catalog that has lost the view's rows.
func TestOpenEngineFailsOnCorruptViewSegment(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, CheckpointBytes: -1}
	e, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 160)
	for i := range vals {
		vals[i] = 20 + 5*math.Sin(float64(i)*0.17)
	}
	if err := e.RegisterSeries("campus", timeseries.FromValues(vals)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(`CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=2 WINDOW 16 FROM campus WHERE t >= 100 AND t <= 110`); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil { // checkpoints pv into a segment
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg", "*-pv.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("pv segments = %v (%v), want one", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff // inside the record payload: the frame's checksum fails
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	e, err = OpenEngine(cfg)
	if err == nil {
		e.Close()
		t.Fatal("OpenEngine over a corrupt view segment succeeded")
	}
	if !errors.Is(err, durable.ErrBadRecord) || !strings.Contains(err.Error(), `view "pv"`) || !strings.Contains(err.Error(), segs[0]) {
		t.Fatalf("OpenEngine: %v; want ErrBadRecord naming view \"pv\" and %s", err, segs[0])
	}
}

package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/density"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// flakyMetric wraps a real metric and fails Infer on demand — the forced
// mid-step failure of the ingest-atomicity contract. With poison set it
// instead succeeds but returns an inference GenerateOne must reject (nil
// distribution, NaN sigma), forcing the failure after inference but before
// the model commits.
type flakyMetric struct {
	density.Metric
	fail   bool
	poison bool
}

var errInjected = errors.New("injected inference failure")

func (m *flakyMetric) Infer(window []float64) (*density.Inference, error) {
	if m.fail {
		return nil, errInjected
	}
	inf, err := m.Metric.Infer(window)
	if err != nil {
		return nil, err
	}
	if m.poison {
		bad := *inf
		bad.Dist, bad.Sigma = nil, math.NaN()
		return &bad, nil
	}
	return inf, nil
}

func newFlakyMetric(t *testing.T) *flakyMetric {
	t.Helper()
	inner, err := density.NewARMAGARCH(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &flakyMetric{Metric: inner}
}

// openTestStream registers the first h points of series under name and opens
// a stream on them.
func openTestStream(t *testing.T, e *Engine, name string, series *timeseries.Series, h int, metric density.Metric) *Stream {
	t.Helper()
	warm, err := series.Slice(0, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterSeries(name, warm); err != nil {
		t.Fatal(err)
	}
	stream, err := e.OpenStream(StreamConfig{
		Source: name, ViewName: name + "_view", Metric: metric,
		H: h, Omega: view.Omega{Delta: 0.5, N: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// TestStepAtomicOnModelFailure forces the model step to fail mid-Step and
// asserts the failed Step leaves ALL state untouched: raw table, view rows,
// step counter. Retrying after the failure must produce the exact rows a
// never-failing control stream produces — the divergence the old
// advance-model-then-append order allowed.
func TestStepAtomicOnModelFailure(t *testing.T) {
	const h = 90
	full := arSeries(200, 11)

	e := NewEngine()
	metric := newFlakyMetric(t)
	stream := openTestStream(t, e, "flaky", full, h, metric)

	control := NewEngine()
	ctrlStream := openTestStream(t, control, "flaky", full, h, newFlakyMetric(t))

	for i := h; i < 150; i++ {
		p, err := full.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if i == 120 {
			// Arm the failure: the step must reject without consuming p.
			metric.fail = true
			rawBefore, _ := e.DB().RawLen("flaky")
			rowsBefore := stream.table.NumRows()
			stepsBefore := stream.Steps()
			if _, err := stream.StepDetailed(p); !errors.Is(err, errInjected) {
				t.Fatalf("armed step: got %v", err)
			}
			if rawAfter, _ := e.DB().RawLen("flaky"); rawAfter != rawBefore {
				t.Fatalf("raw table advanced across failed step: %d -> %d", rawBefore, rawAfter)
			}
			if stream.table.NumRows() != rowsBefore {
				t.Fatal("view rows appended by failed step")
			}
			if stream.Steps() != stepsBefore {
				t.Fatal("step counter advanced by failed step")
			}
			metric.fail = false
			// The same point must now succeed: nothing consumed it.
		}
		if _, err := stream.StepDetailed(p); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if _, err := ctrlStream.StepDetailed(p); err != nil {
			t.Fatalf("control step %d: %v", i, err)
		}
	}

	got := stream.table.SnapshotRows()
	want := ctrlStream.table.SnapshotRows()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("view diverged from never-failing control: %d vs %d rows", len(got), len(want))
	}
	if gotLen, _ := e.DB().RawLen("flaky"); gotLen != 150 {
		t.Fatalf("raw length = %d, want 150", gotLen)
	}
}

// TestCleaningStepAtomicOnGenerateFailure forces the failure between the
// C-GARCH processor's inference and its commit: the metric returns a poisoned
// inference (nil distribution, NaN sigma) that row generation rejects. The
// processor must not consume the point — the batch steps a clone — so the
// retried point produces rows identical to a never-poisoned control stream.
func TestCleaningStepAtomicOnGenerateFailure(t *testing.T) {
	const h = 90
	full := arSeries(170, 14)

	open := func(e *Engine, m *flakyMetric) *Stream {
		warm, err := full.Slice(0, h)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterSeries("cl", warm); err != nil {
			t.Fatal(err)
		}
		stream, err := e.OpenStream(StreamConfig{
			Source: "cl", ViewName: "cl_view", Metric: m,
			H: h, Omega: view.Omega{Delta: 0.5, N: 4},
			Clean: &CleanStreamConfig{OCMax: 8, SVMax: 50},
		})
		if err != nil {
			t.Fatal(err)
		}
		return stream
	}
	e := NewEngine()
	metric := newFlakyMetric(t)
	stream := open(e, metric)
	control := NewEngine()
	ctrlStream := open(control, newFlakyMetric(t))

	for i := h; i < 170; i++ {
		p, err := full.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if i == 130 {
			metric.poison = true
			rawBefore, _ := e.DB().RawLen("cl")
			rowsBefore := stream.table.NumRows()
			if _, err := stream.StepDetailed(p); err == nil {
				t.Fatal("poisoned inference generated rows")
			}
			if rawAfter, _ := e.DB().RawLen("cl"); rawAfter != rawBefore {
				t.Fatal("raw point stored despite generation failure")
			}
			if stream.table.NumRows() != rowsBefore {
				t.Fatal("view rows appended on generation failure")
			}
			metric.poison = false
		}
		if _, err := stream.StepDetailed(p); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if _, err := ctrlStream.StepDetailed(p); err != nil {
			t.Fatalf("control step %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(stream.table.SnapshotRows(), ctrlStream.table.SnapshotRows()) {
		t.Fatal("cleaned view diverged from never-poisoned control: processor consumed the failed point")
	}
}

// TestStepAtomicOnRawAppendFailure drops the raw table out from under a live
// stream: CommitStep fails, and because the model's prepared step is only
// committed after a successful append, restoring the table and retrying
// yields rows identical to a stream that never saw the failure.
func TestStepAtomicOnRawAppendFailure(t *testing.T) {
	const h = 90
	full := arSeries(160, 12)

	e := NewEngine()
	stream := openTestStream(t, e, "dropped", full, h, nil)

	control := NewEngine()
	ctrlStream := openTestStream(t, control, "dropped", full, h, nil)

	step := func(s *Stream, i int) ([]view.Row, error) {
		p, err := full.At(i)
		if err != nil {
			t.Fatal(err)
		}
		return s.Step(p)
	}
	for i := h; i < 120; i++ {
		if _, err := step(stream, i); err != nil {
			t.Fatal(err)
		}
		if _, err := step(ctrlStream, i); err != nil {
			t.Fatal(err)
		}
	}

	// Keep a copy of the raw contents, then drop the table mid-stream.
	snapshot, err := e.DB().SnapshotSeries("dropped")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DB().Drop("dropped"); err != nil {
		t.Fatal(err)
	}
	rowsBefore := stream.table.NumRows()
	if _, err := step(stream, 120); err == nil {
		t.Fatal("step against dropped table succeeded")
	}
	if stream.table.NumRows() != rowsBefore {
		t.Fatal("view rows appended while raw append failed")
	}

	// Restore the table and retry the same point: the model must not have
	// consumed it during the failed step.
	if _, err := e.DB().CreateRawTable("dropped", "t", "r", snapshot); err != nil {
		t.Fatal(err)
	}
	for i := 120; i < 160; i++ {
		if _, err := step(stream, i); err != nil {
			t.Fatalf("step %d after restore: %v", i, err)
		}
		if _, err := step(ctrlStream, i); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(stream.table.SnapshotRows(), ctrlStream.table.SnapshotRows()) {
		t.Fatal("view diverged after raw-append failure")
	}
}

// TestStepOutOfOrderSentinel pins the distinct conflict sentinel and its
// atomicity: a rejected out-of-order point changes nothing.
func TestStepOutOfOrderSentinel(t *testing.T) {
	const h = 90
	full := arSeries(120, 13)
	e := NewEngine()
	stream := openTestStream(t, e, "ooo", full, h, nil)

	for i := h; i < 100; i++ {
		p, err := full.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stream.Step(p); err != nil {
			t.Fatal(err)
		}
	}
	rawBefore, _ := e.DB().RawLen("ooo")
	rowsBefore := stream.table.NumRows()
	_, err := stream.Step(timeseries.Point{T: 1, V: 0})
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("got %v, want ErrOutOfOrder", err)
	}
	if errors.Is(err, ErrBadArg) {
		t.Fatal("ErrOutOfOrder must be distinct from ErrBadArg")
	}
	if rawAfter, _ := e.DB().RawLen("ooo"); rawAfter != rawBefore || stream.table.NumRows() != rowsBefore {
		t.Fatal("rejected out-of-order step mutated state")
	}
	// The error message names both timestamps for the operator.
	if want := fmt.Sprintf("t=%d after t=%d", 1, 100); err != nil && !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// TestFirstStepStaleTimestamp pins the watermark seeding: the very first
// Step of a freshly opened stream with a timestamp at or before the table's
// last stored point is an out-of-order conflict (409 through the server),
// not a storage-level unsorted error (400), and touches nothing.
func TestFirstStepStaleTimestamp(t *testing.T) {
	const h = 90
	full := arSeries(120, 15)
	e := NewEngine()
	stream := openTestStream(t, e, "fresh", full, h, nil)

	// Warm-up covers t=1..90; t=90 and t=1 are both stale on the first step.
	for _, stale := range []int64{90, 1} {
		_, err := stream.Step(timeseries.Point{T: stale, V: 0})
		if !errors.Is(err, ErrOutOfOrder) {
			t.Fatalf("first step at t=%d: got %v, want ErrOutOfOrder", stale, err)
		}
	}
	if n, _ := e.DB().RawLen("fresh"); n != h {
		t.Fatalf("raw length = %d after rejected first steps, want %d", n, h)
	}
	// The next timestamp after the stored history is accepted.
	p, err := full.At(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Step(p); err != nil {
		t.Fatalf("first in-order step: %v", err)
	}
}

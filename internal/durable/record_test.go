package durable

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
)

// TestRecordGoldenBytes pins the on-disk encoding of one fixed record of
// each kind: a data directory written by any earlier build must decode
// unchanged, and the bytes a step costs must not drift. Each record also
// decodes back to what was encoded.
func TestRecordGoldenBytes(t *testing.T) {
	meta := storage.ViewMeta{Name: "pv", Source: "raw", MetricName: "m", Omega: view.Omega{Delta: 0.5, N: 2}}
	viewRow := view.Row{T: 1, Lambda: -1, Lo: 0, Hi: 1, Prob: 0.25}
	stepRow := view.Row{T: 2, Lambda: 0, Lo: 1, Hi: 2, Prob: 0.75}
	stepsPts := []timeseries.Point{{T: 2, V: 2.5}, {T: 3, V: -1}}
	for _, tc := range []struct {
		kind string
		enc  []byte
		hex  string
		want record
	}{
		{"create-raw", encodeCreateRaw("raw", "t", "r", []timeseries.Point{{T: 1, V: 2}}),
			"0103726177017401720101000000000000000000000000000040",
			record{kind: 1, name: "raw", timeCol: "t", valueCol: "r", pts: []timeseries.Point{{T: 1, V: 2}}}},
		{"store-view", encodeStoreView(meta, []view.Row{viewRow}),
			"0302707603726177016d000000000000e03f04010100000000000000010000000000000000000000000000f03f000000000000d03f",
			record{kind: 3, name: "pv", source: "raw", metric: "m", omega: meta.Omega, rows: []view.Row{viewRow}}},
		{"drop", encodeDrop("pv"), "06027076", record{kind: 6, name: "pv"}},
		{"steps", encodeSteps("raw", stepsPts, "pv", []view.Row{stepRow}),
			"080372617702707602" + // kind, source, view, 2 points:
				"020000000000000000000000000004400300000000000000000000000000f0bf" + // (2, 2.5), (3, -1)
				"01020000000000000000000000000000f03f0000000000000040000000000000e83f", // one row, at t=2
			record{kind: 8, source: "raw", pts: stepsPts, viewName: "pv", rows: []view.Row{stepRow}}},
	} {
		if got := hex.EncodeToString(tc.enc); got != tc.hex {
			t.Errorf("%s record = %s, want %s", tc.kind, got, tc.hex)
		}
		got, err := decodeRecord(tc.enc, map[string]string{})
		if err != nil {
			t.Fatalf("decode %s: %v", tc.kind, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("decode %s = %+v, want %+v", tc.kind, got, tc.want)
		}
	}
}

// TestRetiredRecordKindsRejected: kinds 2 (append-raw), 4 (append-rows),
// 5 (step) and 7 (reset) are no longer written. Each, in the shape an
// earlier build wrote it, fails to decode, and a log holding one fails
// recovery with ErrBadRecord rather than being skipped. A steps record
// that claims no points is malformed too: no request holds none.
func TestRetiredRecordKindsRejected(t *testing.T) {
	appendRaw := appendPoint(appendStr([]byte{2}, "raw"), timeseries.Point{T: 3, V: 3})
	appendRows := appendRowBatch(append(appendStr([]byte{4}, "pv"), 1),
		[]view.Row{{T: 3, Lambda: 0, Lo: 2, Hi: 3, Prob: 1}})
	// A step record: source, the point (2, 2.5), view name, one row at t=2.
	step, err := hex.DecodeString("0503726177020000000000000000000000000004400270760102" +
		"0000000000000000000000000000f03f0000000000000040000000000000e83f")
	if err != nil {
		t.Fatal(err)
	}
	emptySteps := encodeSteps("raw", nil, "pv", nil)
	valid := wal.AppendFrame(nil, encodeCreateRaw("raw", "t", "r", []timeseries.Point{{T: 1, V: 2}}))
	for _, payload := range [][]byte{appendRaw, appendRows, step, {7}, emptySteps} {
		if _, err := decodeRecord(payload, map[string]string{}); !errors.Is(err, ErrBadRecord) {
			t.Errorf("decode kind %d = %v, want ErrBadRecord", payload[0], err)
		}
		if _, _, err := openWAL(wal.AppendFrame(append([]byte(nil), valid...), payload)); !errors.Is(err, ErrBadRecord) {
			t.Errorf("recover a log with kind %d: Open = %v, want ErrBadRecord", payload[0], err)
		}
	}
}

package segment_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/segment"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal/faultfs"
)

func randomRows(rng *rand.Rand, tuples int) []view.Row {
	var rows []view.Row
	t := int64(0)
	for i := 0; i < tuples; i++ {
		t += 1 + int64(rng.Intn(3))
		n := 1 + rng.Intn(5)
		for l := 0; l < n; l++ {
			rows = append(rows, view.Row{
				T: t, Lambda: l - n/2,
				Lo: rng.NormFloat64(), Hi: rng.NormFloat64(), Prob: rng.Float64(),
			})
		}
	}
	return rows
}

// edgeRows holds the row shapes random rows never produce: Lambda that is
// not the in-group position, a zero-width row, infinite bounds, and NaN and
// negative-zero probabilities.
func edgeRows() []view.Row {
	return []view.Row{
		{T: 1, Lambda: -1, Lo: 19.5, Hi: 20, Prob: 0.25},
		{T: 1, Lambda: 0, Lo: 20, Hi: 20.5, Prob: math.NaN()},
		{T: 1, Lambda: 1, Lo: 20.5, Hi: 21, Prob: math.Copysign(0, -1)},
		{T: 2, Lambda: 7, Lo: 21, Hi: 21, Prob: 1},
		{T: 4, Lambda: -3, Lo: math.Inf(-1), Hi: 19, Prob: 0.125},
		{T: 4, Lambda: 5, Lo: 19, Hi: math.Inf(1), Prob: 0.875},
	}
}

// sameBits compares rows bit for bit: reflect.DeepEqual cannot, since
// NaN != NaN, and == would let -0 pass for +0.
func sameBits(a, b []view.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.T != y.T || x.Lambda != y.Lambda ||
			math.Float64bits(x.Lo) != math.Float64bits(y.Lo) ||
			math.Float64bits(x.Hi) != math.Float64bits(y.Hi) ||
			math.Float64bits(x.Prob) != math.Float64bits(y.Prob) {
			return false
		}
	}
	return true
}

func TestViewSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fs := faultfs.New()
	meta := segment.ViewMeta{Name: "pv", Source: "raw", MetricName: "armagarch(1,0)", Delta: 0.5, N: 8}
	for trial := 0; trial < 25; trial++ {
		rows := randomRows(rng, rng.Intn(60))
		if err := segment.WriteView(fs, "seg/pv.seg", meta, rows); err != nil {
			t.Fatal(err)
		}
		r, err := segment.Open(fs, "seg/pv.seg")
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind != segment.KindView || r.View != meta {
			t.Fatalf("meta round-trip: %+v", r.View)
		}
		got, err := r.AllViewRows()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			if len(got) != 0 {
				t.Fatalf("empty segment returned %d rows", len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("trial %d: rows differ after round trip", trial)
		}
		// Range reads match the in-memory filter, at random bounds.
		maxT := rows[len(rows)-1].T
		for q := 0; q < 20; q++ {
			lo := int64(rng.Intn(int(maxT)+2)) - 1
			hi := lo + int64(rng.Intn(int(maxT)+2))
			var want []view.Row
			for _, row := range rows {
				if row.T >= lo && row.T <= hi {
					want = append(want, row)
				}
			}
			got, err := r.ViewRows(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ViewRows(%d,%d): %d rows, want %d", lo, hi, len(got), len(want))
			}
		}
	}

	// The edge shapes and an empty view: build, write, read back whole and
	// by range, compare every row bit for bit.
	for _, rows := range [][]view.Row{edgeRows(), nil} {
		if err := segment.WriteView(fs, "seg/pv.seg", meta, rows); err != nil {
			t.Fatal(err)
		}
		r, err := segment.Open(fs, "seg/pv.seg")
		if err != nil {
			t.Fatal(err)
		}
		if r.View != meta {
			t.Fatalf("meta %+v, want %+v", r.View, meta)
		}
		all, err := r.AllViewRows()
		if err != nil {
			t.Fatal(err)
		}
		ranged, err := r.ViewRows(math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(all, rows) || !sameBits(ranged, rows) {
			t.Fatalf("edge rows: AllViewRows = %v, ViewRows = %v, want %v", all, ranged, rows)
		}
	}
}

func TestRawSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	fs := faultfs.New()
	meta := segment.RawMeta{Name: "raw", TimeCol: "t", ValueCol: "r"}
	// Spans multiple 512-point blocks to exercise chunked range reads.
	pts := make([]timeseries.Point, 1800)
	tt := int64(0)
	for i := range pts {
		tt += 1 + int64(rng.Intn(2))
		pts[i] = timeseries.Point{T: tt, V: rng.NormFloat64()}
	}
	if err := segment.WriteRaw(fs, "seg/raw.seg", meta, pts); err != nil {
		t.Fatal(err)
	}
	r, err := segment.Open(fs, "seg/raw.seg")
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != segment.KindRaw || r.Raw != meta {
		t.Fatalf("meta round-trip: %+v", r.Raw)
	}
	all, err := r.AllPoints()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all, pts) {
		t.Fatalf("points differ after round trip: %d vs %d", len(all), len(pts))
	}
	for q := 0; q < 30; q++ {
		lo := int64(rng.Intn(int(tt) + 2))
		hi := lo + int64(rng.Intn(int(tt)+2))
		var want []timeseries.Point
		for _, p := range pts {
			if p.T >= lo && p.T <= hi {
				want = append(want, p)
			}
		}
		got, err := r.Points(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("Points(%d,%d): %d, want %d", lo, hi, len(got), len(want))
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	fs := faultfs.New()
	meta := segment.ViewMeta{Name: "pv", Delta: 1, N: 2}
	rows := randomRows(rand.New(rand.NewSource(13)), 30)
	if err := segment.WriteView(fs, "pv.seg", meta, rows); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadBack("pv.seg")
	// Flip one bit at every byte position; Open or the row read must
	// refuse (or, for bits in unread padding, still round-trip sane rows).
	for pos := 0; pos < len(data); pos += 7 {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		fs.WriteExisting("mut.seg", mut)
		r, err := segment.Open(fs, "mut.seg")
		if err != nil {
			if !errors.Is(err, segment.ErrCorrupt) {
				t.Fatalf("pos %d: open error %v, want ErrCorrupt", pos, err)
			}
			continue
		}
		if _, err := r.AllViewRows(); err != nil && !errors.Is(err, segment.ErrCorrupt) {
			t.Fatalf("pos %d: read error %v, want ErrCorrupt", pos, err)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	fs := faultfs.New()
	meta := segment.ViewMeta{Name: "pv", Delta: 1, N: 2}
	rows := randomRows(rand.New(rand.NewSource(14)), 20)
	if err := segment.WriteView(fs, "pv.seg", meta, rows); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadBack("pv.seg")
	for cut := 0; cut < len(data); cut += 11 {
		fs.WriteExisting("cut.seg", data[:cut])
		r, err := segment.Open(fs, "cut.seg")
		if err != nil {
			continue // header refused: fine
		}
		if _, err := r.AllViewRows(); err == nil && cut < len(data) {
			t.Fatalf("cut at %d bytes read back without error", cut)
		}
	}
}

func TestSealLeavesNoTempOnFailure(t *testing.T) {
	fs := faultfs.New()
	meta := segment.ViewMeta{Name: "pv", Delta: 1, N: 2}
	rows := randomRows(rand.New(rand.NewSource(15)), 10)
	// Find how many fs ops a seal takes, then fail at each one.
	if err := segment.WriteView(fs, "probe.seg", meta, rows); err != nil {
		t.Fatal(err)
	}
	total := fs.Ops()
	for k := 1; k <= total; k++ {
		ffs := faultfs.New()
		ffs.FailAt(k, faultfs.DropUnsynced)
		err := segment.WriteView(ffs, "pv.seg", meta, rows)
		if err == nil {
			t.Fatalf("seal with fault at op %d succeeded", k)
		}
		img := ffs.CrashImage()
		if _, err := segment.Open(img, "pv.seg"); err == nil {
			t.Fatalf("fault at op %d left a readable segment under the final name", k)
		}
	}
	// One op past the total: no fault fires, the seal must succeed.
	ffs := faultfs.New()
	ffs.FailAt(total+1, faultfs.DropUnsynced)
	if err := segment.WriteView(ffs, "pv.seg", meta, rows); err != nil {
		t.Fatal(err)
	}
	r, err := segment.Open(ffs.CrashImage(), "pv.seg")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.AllViewRows()
	if err != nil || !reflect.DeepEqual(got, rows) {
		t.Fatalf("sealed segment unreadable: %v", err)
	}
}

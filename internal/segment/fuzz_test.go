package segment_test

import (
	"math/rand"
	"testing"

	"repro/internal/segment"
	"repro/internal/timeseries"
	"repro/internal/wal/faultfs"
)

// FuzzSegmentOpen feeds arbitrary bytes to the segment header and block
// decoders: they must never panic and never allocate absurdly, only
// return ErrCorrupt (or decode a legitimately valid file).
func FuzzSegmentOpen(f *testing.F) {
	fs := faultfs.New()
	meta := segment.ViewMeta{Name: "pv", Source: "raw", MetricName: "m", Delta: 0.5, N: 4}
	rows := randomRows(rand.New(rand.NewSource(1)), 12)
	if err := segment.WriteView(fs, "seed.seg", meta, rows); err != nil {
		f.Fatal(err)
	}
	viewSeed, _ := fs.ReadBack("seed.seg")
	f.Add(viewSeed)
	if err := segment.WriteRaw(fs, "seed2.seg", segment.RawMeta{Name: "raw", TimeCol: "t", ValueCol: "r"},
		[]timeseries.Point{{T: 1, V: 2}, {T: 3, V: 4}}); err != nil {
		f.Fatal(err)
	}
	rawSeed, _ := fs.ReadBack("seed2.seg")
	f.Add(rawSeed)
	f.Add([]byte("TSG1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		mfs := faultfs.New()
		mfs.WriteExisting("fuzz.seg", data)
		r, err := segment.Open(mfs, "fuzz.seg")
		if err != nil {
			return
		}
		switch r.Kind {
		case segment.KindView:
			if rows, err := r.AllViewRows(); err == nil {
				// A fully valid decode must be internally consistent.
				for i := 1; i < len(rows); i++ {
					if rows[i].T < rows[i-1].T {
						t.Fatalf("rows out of time order: t=%d after t=%d", rows[i].T, rows[i-1].T)
					}
				}
			}
		case segment.KindRaw:
			_, _ = r.AllPoints()
		}
	})
}

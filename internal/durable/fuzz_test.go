package durable

import (
	"errors"
	"testing"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// FuzzWALReplay hands arbitrary bytes to recovery as a complete WAL file:
// frame parsing, record decoding and catalog re-application must never
// panic or over-allocate, and must stop cleanly — either by truncating a
// torn tail (Open succeeds with the clean prefix) or by rejecting the
// first structurally bad record (Open fails with an error). When Open
// succeeds, the recovered store must survive a checkpoint/close cycle and
// a second recovery from the result.
func FuzzWALReplay(f *testing.F) {
	// Seed with a fully valid log exercising every record kind…
	meta := storage.ViewMeta{Name: "pv", Source: "raw", MetricName: "m", Omega: view.Omega{Delta: 0.5, N: 2}}
	var valid []byte
	valid = wal.AppendFrame(valid, encodeCreateRaw("raw", "t", "r",
		[]timeseries.Point{{T: 1, V: 2}, {T: 2, V: 2.5}}))
	valid = wal.AppendFrame(valid, encodeStoreView(meta, []view.Row{{T: 1, Lambda: 0, Lo: 0, Hi: 1, Prob: 0.4}}))
	valid = wal.AppendFrame(valid, encodeSteps("raw", []timeseries.Point{{T: 3, V: 3}}, "pv", nil))
	valid = wal.AppendFrame(valid, encodeSteps("raw", []timeseries.Point{{T: 4, V: 4}, {T: 5, V: 4.5}}, "pv",
		[]view.Row{{T: 4, Lambda: 0, Lo: 1, Hi: 2, Prob: 0.6}}))
	valid = wal.AppendFrame(valid, encodeStoreView(meta, []view.Row{{T: 4, Lambda: 1, Lo: 2, Hi: 3, Prob: 0.2}}))
	valid = wal.AppendFrame(valid, encodeDrop("pv"))
	f.Add(valid)
	// …and with degenerate shapes the mutators grow from.
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])                              // torn tail
	f.Add(wal.AppendFrame(nil, []byte{recDrop, 0, 0xff}))    // trailing junk in a record
	f.Add(wal.AppendFrame(nil, []byte{0x7f}))                // unknown kind
	f.Add(wal.AppendFrame(nil, encodeDrop("ghost")))         // drop of a missing table
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad)) // valid log + garbage
	// Kind 7 was Reset, written only by the removed gob snapshot load: a log
	// holding one must fail recovery as a bad record, never skip it.
	retired := wal.AppendFrame(append([]byte(nil), valid...), []byte{7})
	if _, _, err := openWAL(retired); !errors.Is(err, ErrBadRecord) {
		f.Fatalf("kind-7 record: Open = %v, want ErrBadRecord", err)
	}
	f.Add(retired)

	f.Fuzz(func(t *testing.T, data []byte) {
		fs, st, err := openWAL(data)
		if err != nil {
			return // rejected cleanly at the first bad record
		}
		// Whatever prefix was accepted must be a coherent catalog: it can
		// be checkpointed into segments and recovered again.
		names := tableNames(st)
		if err := st.Close(); err != nil {
			t.Fatalf("close after replay: %v", err)
		}
		st2, err := Open(fs, "data", Options{CheckpointBytes: -1})
		if err != nil {
			t.Fatalf("reopen after checkpoint: %v", err)
		}
		defer st2.Close()
		got := tableNames(st2)
		if len(got) != len(names) {
			t.Fatalf("tables after reopen = %v, want %v", got, names)
		}
		for i := range got {
			if got[i] != names[i] {
				t.Fatalf("tables after reopen = %v, want %v", got, names)
			}
		}
	})
}

// tableNames lists the store's tables in name order.
func tableNames(st *Store) []string {
	var names []string
	for _, ti := range st.DB().List() {
		names = append(names, ti.Name)
	}
	return names
}

// openWAL recovers a store from data as its only WAL file.
func openWAL(data []byte) (*faultfs.FS, *Store, error) {
	fs := faultfs.New()
	fs.MkdirAll("data")
	fs.MkdirAll("data/wal")
	fs.WriteExisting("data/wal/"+wal.FileName(1), data)
	st, err := Open(fs, "data", Options{CheckpointBytes: -1})
	return fs, st, err
}

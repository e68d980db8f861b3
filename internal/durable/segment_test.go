package durable

import (
	"bytes"
	"errors"
	iofs "io/fs"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

var (
	segViewMeta = storage.ViewMeta{Name: "pv", Source: "raw", MetricName: "armagarch(1,0)", Omega: view.Omega{Delta: 0.5, N: 8}}
	segViewWant = record{kind: recStoreView, name: "pv", source: "raw", metric: "armagarch(1,0)", omega: segViewMeta.Omega}
	segRawWant  = record{kind: recCreateRaw, name: "raw", timeCol: "t", valueCol: "r"}
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

func randomPoints(rng *rand.Rand, n int) []timeseries.Point {
	pts := make([]timeseries.Point, n)
	t := int64(0)
	for i := range pts {
		t += 1 + int64(rng.Intn(2))
		pts[i] = timeseries.Point{T: t, V: rng.NormFloat64()}
	}
	return pts
}

// writeViewSegment seals rows as the view segment at path of a fresh
// filesystem and returns the filesystem and the file's bytes.
func writeViewSegment(t testing.TB, path string, rows []view.Row) (*faultfs.FS, []byte) {
	t.Helper()
	fs := faultfs.New()
	if err := writeSegment(fs, path, encodeStoreView(segViewMeta, rows)); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadBack(path)
	return fs, data
}

// TestViewSegmentRoundTrip: view segments read back what was written, bit
// for bit: random rows, the edge row shapes, and an empty table.
func TestViewSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	views := [][]view.Row{edgeRows(), nil}
	for trial := 0; trial < 25; trial++ {
		views = append(views, randomRows(rng, rng.Intn(60)))
	}
	for i, rows := range views {
		fs, _ := writeViewSegment(t, "seg/pv.seg", rows)
		got, err := readSegment(fs, "seg/pv.seg", segViewWant)
		if err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
		if !sameBits(got.rows, rows) {
			t.Fatalf("view %d: rows = %v, want %v", i, got.rows, rows)
		}
	}
}

// TestRawSegmentRoundTrip: raw segments read back what was written: random
// points and an empty series.
func TestRawSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, pts := range [][]timeseries.Point{randomPoints(rng, 1800), nil} {
		fs := faultfs.New()
		if err := writeSegment(fs, "seg/raw.seg", encodeCreateRaw("raw", "t", "r", pts)); err != nil {
			t.Fatal(err)
		}
		got, err := readSegment(fs, "seg/raw.seg", segRawWant)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.pts) != len(pts) || (len(pts) > 0 && !reflect.DeepEqual(got.pts, pts)) {
			t.Fatalf("%d points read back as %d", len(pts), len(got.pts))
		}
	}
}

// TestSegmentCorruptionDetected flips every bit of a view segment in turn:
// each flip fails the read with ErrBadRecord, never a panic or rows.
func TestSegmentCorruptionDetected(t *testing.T) {
	fs, data := writeViewSegment(t, "pv.seg", randomRows(rand.New(rand.NewSource(13)), 30))
	mut := make([]byte, len(data))
	for bit := 0; bit < 8*len(data); bit++ {
		copy(mut, data)
		mut[bit/8] ^= 1 << (bit % 8)
		fs.WriteExisting("mut.seg", mut)
		if got, err := readSegment(fs, "mut.seg", segViewWant); !errors.Is(err, ErrBadRecord) || got.rows != nil {
			t.Fatalf("bit %d flipped: %d rows, err %v; want ErrBadRecord", bit, len(got.rows), err)
		}
	}
}

// TestSegmentTruncationDetected cuts a view segment at every length short
// of whole: each cut fails the read with ErrBadRecord.
func TestSegmentTruncationDetected(t *testing.T) {
	fs, data := writeViewSegment(t, "pv.seg", randomRows(rand.New(rand.NewSource(14)), 20))
	for cut := 0; cut < len(data); cut++ {
		fs.WriteExisting("cut.seg", data[:cut])
		if got, err := readSegment(fs, "cut.seg", segViewWant); !errors.Is(err, ErrBadRecord) || got.rows != nil {
			t.Fatalf("cut at %d of %d bytes: %d rows, err %v; want ErrBadRecord", cut, len(data), len(got.rows), err)
		}
	}
}

// TestSegmentSealCrash crashes a segment write at every filesystem
// operation, under every survival mode: the crash image holds no file
// under the final name, and a write that runs to the end leaves the whole
// file.
func TestSegmentSealCrash(t *testing.T) {
	rows := randomRows(rand.New(rand.NewSource(15)), 10)
	payload := encodeStoreView(segViewMeta, rows)
	probe := faultfs.New()
	if err := writeSegment(probe, "probe.seg", payload); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	for _, mode := range []faultfs.Mode{faultfs.DropUnsynced, faultfs.KeepHalfUnsynced, faultfs.KeepAllUnsynced} {
		for k := 1; k <= total+1; k++ {
			fs := faultfs.New()
			fs.FailAt(k, mode)
			err := writeSegment(fs, "pv.seg", payload)
			got, rerr := readSegment(fs.CrashImage(), "pv.seg", segViewWant)
			if k <= total {
				if err == nil || !errors.Is(rerr, iofs.ErrNotExist) {
					t.Fatalf("%v, fault at op %d: write err %v, read err %v; want a failed write and no file", mode, k, err, rerr)
				}
				continue
			}
			if err != nil || rerr != nil || !sameBits(got.rows, rows) {
				t.Fatalf("%v, no fault: write err %v, read err %v, %d of %d rows", mode, err, rerr, len(got.rows), len(rows))
			}
		}
	}
}

// TestSegmentMustMatchManifest: a segment whose kind, table name or view
// metadata differs from what the manifest lists for it fails the read.
func TestSegmentMustMatchManifest(t *testing.T) {
	fs, _ := writeViewSegment(t, "pv.seg", randomRows(rand.New(rand.NewSource(16)), 5))
	for name, edit := range map[string]func(*record){
		"kind":   func(r *record) { r.kind = recCreateRaw },
		"name":   func(r *record) { r.name = "other" },
		"source": func(r *record) { r.source = "other" },
		"metric": func(r *record) { r.metric = "ewma" },
		"delta":  func(r *record) { r.omega.Delta = 0.25 },
		"n":      func(r *record) { r.omega.N = 4 },
	} {
		want := segViewWant
		edit(&want)
		if _, err := readSegment(fs, "pv.seg", want); !errors.Is(err, ErrBadRecord) {
			t.Errorf("wrong %s: err %v, want ErrBadRecord", name, err)
		}
	}

	// At Open: a manifest that lists view pv's segments under raw table
	// sensor.
	fs = checkpointedStore(t)
	m, err := readManifest(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Views {
		if v.Name == "pv" {
			m.Raw[0].Segments = v.Segments
		}
	}
	if err := writeManifest(fs, "data", m); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fs, "data", Options{CheckpointBytes: -1}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("Open with view segments listed for raw table %q: %v, want ErrBadRecord", m.Raw[0].Name, err)
	}
}

// durableFiles returns the content of every file under data: the
// manifest, and every file under data/seg and data/wal.
func durableFiles(t *testing.T, fs *faultfs.FS) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, dir := range []string{"data", "data/seg", "data/wal"} {
		names, err := fs.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			out[dir+"/"+name], _ = fs.ReadBack(dir + "/" + name)
		}
	}
	return out
}

// checkpointedStore runs the seed workload, checkpoints, commits one more
// step and closes the store, which checkpoints again: two segments each for
// raw table sensor and view pv, a manifest and a WAL file on disk.
func checkpointedStore(t *testing.T) *faultfs.FS {
	t.Helper()
	fs := faultfs.New()
	st := openStore(t, fs, Options{Fsync: true, CheckpointBytes: -1})
	seedWorkload(t, st, 6)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.DB().CommitStep("sensor", timeseries.Point{T: 100, V: 1}, mustView(t, st.DB(), "pv"),
		[]view.Row{{T: 100, Lambda: 0, Prob: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestOpenRefusesV1Manifest: a data directory whose manifest is version 1
// lists segments in the retired block format. Open refuses it and deletes
// nothing.
func TestOpenRefusesV1Manifest(t *testing.T) {
	fs := checkpointedStore(t)
	m, err := readManifest(fs, "data")
	if err != nil {
		t.Fatal(err)
	}
	m.Version = 1
	if err := writeManifest(fs, "data", m); err != nil {
		t.Fatal(err)
	}
	before := durableFiles(t, fs)
	if _, err := Open(fs, "data", Options{CheckpointBytes: -1}); err == nil || !strings.Contains(err.Error(), "version 1 not supported") {
		t.Fatalf("Open with a v1 manifest: %v, want version 1 not supported", err)
	}
	if after := durableFiles(t, fs); !reflect.DeepEqual(after, before) {
		t.Fatalf("files after a refused Open: %d, before %d", len(after), len(before))
	}
}

// deniedManifest is a filesystem on which the manifest exists but cannot
// be opened.
type deniedManifest struct{ *faultfs.FS }

func (d deniedManifest) Open(name string) (wal.ReadFile, error) {
	if filepath.Base(name) == manifestName {
		return nil, &iofs.PathError{Op: "open", Path: name, Err: iofs.ErrPermission}
	}
	return d.FS.Open(name)
}

// TestOpenFailsOnUnreadableManifest: a manifest that exists but cannot be
// opened is not a fresh directory. Open returns the error, and no segment
// or WAL file is deleted.
func TestOpenFailsOnUnreadableManifest(t *testing.T) {
	fs := checkpointedStore(t)
	before := durableFiles(t, fs)
	segs := 0
	for name := range before {
		if strings.HasSuffix(name, ".seg") {
			segs++
		}
	}
	if segs != 4 {
		t.Fatalf("workload left %d segment files, want 4", segs)
	}
	st, err := Open(deniedManifest{fs}, "data", Options{CheckpointBytes: -1})
	if !errors.Is(err, iofs.ErrPermission) {
		if st != nil {
			st.Close()
		}
		t.Fatalf("Open with an unreadable manifest: %v, want ErrPermission", err)
	}
	if after := durableFiles(t, fs); !reflect.DeepEqual(after, before) {
		t.Fatalf("files after a failed Open: %d, before %d", len(after), len(before))
	}
}

// TestOpenFailsOnBadViewSegment: a view segment that is corrupt, cut
// short, too long, missing, or that holds a row count other than the
// manifest's fails Open with an error naming the view and the file, and
// Open changes no file on disk.
func TestOpenFailsOnBadViewSegment(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(fs *faultfs.FS, m *manifest, seg string)
		want error
	}{
		{"flipped payload byte", func(fs *faultfs.FS, _ *manifest, seg string) {
			data, _ := fs.ReadBack(seg)
			data[len(data)-1] ^= 0x01
			fs.WriteExisting(seg, data)
		}, ErrBadRecord},
		{"truncated", func(fs *faultfs.FS, _ *manifest, seg string) {
			data, _ := fs.ReadBack(seg)
			fs.WriteExisting(seg, data[:len(data)/2])
		}, ErrBadRecord},
		{"trailing byte", func(fs *faultfs.FS, _ *manifest, seg string) {
			data, _ := fs.ReadBack(seg)
			fs.WriteExisting(seg, append(data, 0))
		}, ErrBadRecord},
		{"missing", func(fs *faultfs.FS, _ *manifest, seg string) {
			if err := fs.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}, iofs.ErrNotExist},
		{"row count", func(fs *faultfs.FS, m *manifest, _ string) {
			for i := range m.Views {
				if m.Views[i].Name == "pv" {
					m.Views[i].Rows++
				}
			}
			if err := writeManifest(fs, "data", m); err != nil {
				t.Fatal(err)
			}
		}, ErrBadRecord},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := checkpointedStore(t)
			m, err := readManifest(fs, "data")
			if err != nil {
				t.Fatal(err)
			}
			var seg string
			for _, v := range m.Views {
				if v.Name == "pv" {
					seg = v.Segments[0]
				}
			}
			tc.edit(fs, m, seg)
			before := durableFiles(t, fs)
			st, err := Open(fs, "data", Options{CheckpointBytes: -1})
			if err == nil {
				st.Close()
				t.Fatal("Open succeeded")
			}
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), `view "pv"`) || !strings.Contains(err.Error(), seg) {
				t.Fatalf("Open: %v; want %v naming view \"pv\" and %s", err, tc.want, seg)
			}
			if after := durableFiles(t, fs); !reflect.DeepEqual(after, before) {
				t.Fatalf("files after a failed Open: %d, before %d", len(after), len(before))
			}
		})
	}
}

// FuzzSegmentRead feeds arbitrary bytes to the segment reader: it must
// never panic or over-allocate, and either fail with ErrBadRecord or
// return the record it was asked for.
func FuzzSegmentRead(f *testing.F) {
	_, viewSeed := writeViewSegment(f, "pv.seg", randomRows(rand.New(rand.NewSource(1)), 12))
	f.Add(viewSeed)
	fs := faultfs.New()
	if err := writeSegment(fs, "raw.seg", encodeCreateRaw("raw", "t", "r",
		[]timeseries.Point{{T: 1, V: 2}, {T: 3, V: 4}})); err != nil {
		f.Fatal(err)
	}
	rawSeed, _ := fs.ReadBack("raw.seg")
	f.Add(rawSeed)
	f.Add(append([]byte(nil), segMagic...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := faultfs.New()
		fs.WriteExisting("fuzz.seg", data)
		for _, want := range []record{segViewWant, segRawWant} {
			got, err := readSegment(fs, "fuzz.seg", want)
			if err != nil {
				if !errors.Is(err, ErrBadRecord) {
					t.Fatalf("err %v, want ErrBadRecord", err)
				}
				continue
			}
			if got.kind != want.kind || got.name != want.name || !bytes.HasPrefix(data, segMagic) {
				t.Fatalf("read kind %d table %q, want kind %d table %q", got.kind, got.name, want.kind, want.name)
			}
		}
	})
}

// Package segment implements the immutable on-disk block format the WAL
// rotates into at checkpoints: time-partitioned segment files whose
// physical layout is the TimeGroup index itself.
//
// A view segment stores one block per distinct timestamp (the TimeGroup
// of storage.ProbTable), a raw segment stores fixed-size chunks of
// points. Every file carries a binary-searchable group index in its
// header — {T, file offset, row count} per block, sorted by T — so a
// time-range read touches only the blocks that intersect the range.
// The header and each block are independently CRC32-checksummed, and
// files are sealed atomically (write temp, sync, rename), so a reader
// either sees a complete verified segment or an open error; never a torn
// one.
//
// Layout (all integers little-endian):
//
//	magic "TSG1" | kind u8 | meta strings... | omega (views)
//	groupCount u32 | groupCount x { T i64, off u64, count u32 }
//	headerCRC u32
//	blocks... each: rows | blockCRC u32
//
// View block row: { lambda i32, lo f64, hi f64, prob f64 } — the
// timestamp lives once in the index entry, not per row. Raw block point:
// { t i64, v f64 }.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/obs"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
)

// Errors reported by the package.
var (
	// ErrCorrupt reports a segment whose framing, lengths or checksums do
	// not verify. Opening never panics on arbitrary bytes; it returns
	// this.
	ErrCorrupt = errors.New("segment: corrupt segment file")
)

var magic = [4]byte{'T', 'S', 'G', '1'}

// Kind discriminates segment contents.
type Kind uint8

const (
	// KindView marks Omega-row segments (one block per TimeGroup).
	KindView Kind = 1
	// KindRaw marks raw-point segments (chunked blocks).
	KindRaw Kind = 2
)

// rawBlockPoints is the chunk size of raw segments: small enough that a
// range read over a huge table skips most of the file, large enough that
// the index stays negligible.
const rawBlockPoints = 512

const (
	viewRowBytes  = 4 + 8 + 8 + 8
	rawPointBytes = 8 + 8
	groupBytes    = 8 + 8 + 4
)

// ViewMeta identifies the view a segment belongs to.
type ViewMeta struct {
	Name       string
	Source     string
	MetricName string
	Delta      float64
	N          int
}

// RawMeta identifies the raw table a segment belongs to.
type RawMeta struct {
	Name     string
	TimeCol  string
	ValueCol string
}

// Group is one index entry: rows/points with (or starting at, for raw
// segments) timestamp T live at file offset Off.
type Group struct {
	T     int64
	Off   uint64
	Count uint32
}

// --- encoding helpers ---

func appendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

type decoder struct {
	b   []byte
	off int
	err bool
}

func (d *decoder) fail() {
	d.err = true
}

func (d *decoder) bytes(n int) []byte {
	if d.err || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decoder) uint8() uint8 {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) uint32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) uint64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) int64() int64 { return int64(d.uint64()) }

func (d *decoder) float() float64 { return math.Float64frombits(d.uint64()) }

func (d *decoder) string() string {
	if d.err {
		return ""
	}
	n, sz := binary.Uvarint(d.b[d.off:])
	if sz <= 0 || n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	d.off += sz
	return string(d.bytes(int(n)))
}

// --- writing ---

// buildView serialises a complete view segment file.
func buildView(meta ViewMeta, rows []view.Row) []byte {
	// Group rows by timestamp (they arrive in ascending-T, lambda order —
	// the ProbTable layout).
	type span struct {
		t        int64
		off, cnt int
	}
	var spans []span
	for i, r := range rows {
		if n := len(spans); n > 0 && spans[n-1].t == r.T {
			spans[n-1].cnt++
		} else {
			spans = append(spans, span{t: r.T, off: i, cnt: 1})
		}
	}
	hdr := headerBytes(KindView, len(spans), func(b []byte) []byte {
		b = appendString(b, meta.Name)
		b = appendString(b, meta.Source)
		b = appendString(b, meta.MetricName)
		b = appendFloat(b, meta.Delta)
		b = appendUint32(b, uint32(meta.N))
		return b
	})
	// Block offsets are known once the header size is: blocks follow it
	// back to back.
	buf := make([]byte, 0, hdr+len(rows)*viewRowBytes+len(spans)*4)
	buf = appendViewHeader(buf, meta)
	buf = appendUint32(buf, uint32(len(spans)))
	off := uint64(hdr)
	for _, sp := range spans {
		buf = appendUint64(buf, uint64(sp.t))
		buf = appendUint64(buf, off)
		buf = appendUint32(buf, uint32(sp.cnt))
		off += uint64(sp.cnt*viewRowBytes) + 4
	}
	buf = appendUint32(buf, crc32.ChecksumIEEE(buf))
	for _, sp := range spans {
		start := len(buf)
		for _, r := range rows[sp.off : sp.off+sp.cnt] {
			buf = appendUint32(buf, uint32(int32(r.Lambda)))
			buf = appendFloat(buf, r.Lo)
			buf = appendFloat(buf, r.Hi)
			buf = appendFloat(buf, r.Prob)
		}
		buf = appendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	}
	return buf
}

func appendViewHeader(buf []byte, meta ViewMeta) []byte {
	buf = append(buf, magic[:]...)
	buf = append(buf, byte(KindView))
	buf = appendString(buf, meta.Name)
	buf = appendString(buf, meta.Source)
	buf = appendString(buf, meta.MetricName)
	buf = appendFloat(buf, meta.Delta)
	buf = appendUint32(buf, uint32(meta.N))
	return buf
}

// buildRaw serialises a complete raw segment file.
func buildRaw(meta RawMeta, pts []timeseries.Point) []byte {
	nBlocks := (len(pts) + rawBlockPoints - 1) / rawBlockPoints
	hdr := headerBytes(KindRaw, nBlocks, func(b []byte) []byte {
		b = appendString(b, meta.Name)
		b = appendString(b, meta.TimeCol)
		b = appendString(b, meta.ValueCol)
		return b
	})
	buf := make([]byte, 0, hdr+len(pts)*rawPointBytes+nBlocks*4)
	buf = append(buf, magic[:]...)
	buf = append(buf, byte(KindRaw))
	buf = appendString(buf, meta.Name)
	buf = appendString(buf, meta.TimeCol)
	buf = appendString(buf, meta.ValueCol)
	buf = appendUint32(buf, uint32(nBlocks))
	off := uint64(hdr)
	for i := 0; i < nBlocks; i++ {
		lo := i * rawBlockPoints
		hi := min(lo+rawBlockPoints, len(pts))
		buf = appendUint64(buf, uint64(pts[lo].T))
		buf = appendUint64(buf, off)
		buf = appendUint32(buf, uint32(hi-lo))
		off += uint64((hi-lo)*rawPointBytes) + 4
	}
	buf = appendUint32(buf, crc32.ChecksumIEEE(buf))
	for i := 0; i < nBlocks; i++ {
		lo := i * rawBlockPoints
		hi := min(lo+rawBlockPoints, len(pts))
		start := len(buf)
		for _, p := range pts[lo:hi] {
			buf = appendUint64(buf, uint64(p.T))
			buf = appendFloat(buf, p.V)
		}
		buf = appendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	}
	return buf
}

// headerBytes computes the exact serialised header size: magic + kind +
// meta + group count + index + header CRC.
func headerBytes(kind Kind, groups int, meta func([]byte) []byte) int {
	b := meta(make([]byte, 0, 64))
	return 4 + 1 + len(b) + 4 + groups*groupBytes + 4
}

// seal writes data to path atomically: temp file, sync, close, rename.
// A crash at any boundary leaves either no file or the complete sealed
// file — never a torn segment under the final name.
func seal(fs wal.FS, path string, data []byte) error {
	sp := obs.StartSpan(metSeal)
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return err
	}
	metWritten.Inc()
	metBytesWritten.Add(int64(len(data)))
	sp.End()
	return nil
}

// WriteView seals a view segment at path. Rows must be in the ProbTable
// physical order: ascending timestamp, contiguous groups.
func WriteView(fs wal.FS, path string, meta ViewMeta, rows []view.Row) error {
	return seal(fs, path, buildView(meta, rows))
}

// WriteRaw seals a raw segment at path. Points must be in ascending
// timestamp order.
func WriteRaw(fs wal.FS, path string, meta RawMeta, pts []timeseries.Point) error {
	return seal(fs, path, buildRaw(meta, pts))
}

// --- reading ---

// Reader is an opened segment: verified header and group index in
// memory, blocks read (and CRC-verified) on demand.
type Reader struct {
	fs   wal.FS
	path string

	Kind Kind
	View ViewMeta // valid when Kind == KindView
	Raw  RawMeta  // valid when Kind == KindRaw

	groups []Group
}

// Open reads and verifies a segment header. Block contents are not
// touched; corrupt blocks surface as ErrCorrupt from the read methods.
func Open(fs wal.FS, path string) (*Reader, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	data, err := readAll(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	metOpened.Inc()
	metBytesRead.Add(int64(len(data)))
	return openBytes(fs, path, data)
}

// readAll drains a ReadFile without assuming a Size method.
func readAll(f wal.ReadFile) ([]byte, error) {
	var buf []byte
	chunk := make([]byte, 64<<10)
	for {
		n, err := f.Read(chunk)
		buf = append(buf, chunk[:n]...)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return buf, nil
			}
			return buf, err
		}
	}
}

func openBytes(fs wal.FS, path string, data []byte) (*Reader, error) {
	d := &decoder{b: data}
	if m := d.bytes(4); m == nil || string(m) != string(magic[:]) {
		return nil, fmt.Errorf("%w: bad magic in %s", ErrCorrupt, path)
	}
	r := &Reader{fs: fs, path: path, Kind: Kind(d.uint8())}
	switch r.Kind {
	case KindView:
		r.View.Name = d.string()
		r.View.Source = d.string()
		r.View.MetricName = d.string()
		r.View.Delta = d.float()
		r.View.N = int(d.uint32())
	case KindRaw:
		r.Raw.Name = d.string()
		r.Raw.TimeCol = d.string()
		r.Raw.ValueCol = d.string()
	default:
		return nil, fmt.Errorf("%w: unknown kind %d in %s", ErrCorrupt, r.Kind, path)
	}
	nGroups := d.uint32()
	if d.err || uint64(nGroups)*groupBytes > uint64(len(data)) {
		return nil, fmt.Errorf("%w: implausible group count in %s", ErrCorrupt, path)
	}
	r.groups = make([]Group, nGroups)
	rowBytes := viewRowBytes
	if r.Kind == KindRaw {
		rowBytes = rawPointBytes
	}
	for i := range r.groups {
		g := Group{T: d.int64(), Off: d.uint64(), Count: d.uint32()}
		if d.err {
			break
		}
		if i > 0 && g.T <= r.groups[i-1].T {
			return nil, fmt.Errorf("%w: unsorted group index in %s", ErrCorrupt, path)
		}
		end := g.Off + uint64(g.Count)*uint64(rowBytes) + 4
		if g.Off > uint64(len(data)) || end > uint64(len(data)) || end < g.Off {
			return nil, fmt.Errorf("%w: block span outside file in %s", ErrCorrupt, path)
		}
		r.groups[i] = g
	}
	crcEnd := d.off
	want := d.uint32()
	if d.err {
		return nil, fmt.Errorf("%w: truncated header in %s", ErrCorrupt, path)
	}
	if crc32.ChecksumIEEE(data[:crcEnd]) != want {
		return nil, fmt.Errorf("%w: header checksum mismatch in %s", ErrCorrupt, path)
	}
	return r, nil
}

// readBlock fetches and CRC-verifies one block's payload.
func (r *Reader) readBlock(f wal.ReadFile, g Group, rowBytes int) ([]byte, error) {
	buf := make([]byte, int(g.Count)*rowBytes+4)
	if _, err := f.ReadAt(buf, int64(g.Off)); err != nil {
		return nil, fmt.Errorf("%w: short block at %d in %s", ErrCorrupt, g.Off, r.path)
	}
	payload := buf[:len(buf)-4]
	want := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("%w: block checksum mismatch at t=%d in %s", ErrCorrupt, g.T, r.path)
	}
	return payload, nil
}

// searchGroups returns the index span [lo, hi) of blocks intersecting
// [tLo, tHi]. For raw segments a block's span starts at its first point,
// so the block before the binary-search cut may still intersect.
func (r *Reader) searchGroups(tLo, tHi int64) (int, int) {
	lo := 0
	hi := len(r.groups)
	// First group with T >= tLo.
	a, b := 0, len(r.groups)
	for a < b {
		m := (a + b) / 2
		if r.groups[m].T >= tLo {
			b = m
		} else {
			a = m + 1
		}
	}
	lo = a
	if r.Kind == KindRaw && lo > 0 {
		lo-- // the preceding chunk may straddle tLo
	}
	a, b = 0, len(r.groups)
	for a < b {
		m := (a + b) / 2
		if r.groups[m].T > tHi {
			b = m
		} else {
			a = m + 1
		}
	}
	hi = a
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// ViewRows returns the Omega rows with timestamp in [tLo, tHi], in the
// segment's physical order. Only intersecting blocks are read.
func (r *Reader) ViewRows(tLo, tHi int64) ([]view.Row, error) {
	if r.Kind != KindView {
		return nil, fmt.Errorf("%w: ViewRows on kind %d", ErrCorrupt, r.Kind)
	}
	lo, hi := r.searchGroups(tLo, tHi)
	if lo >= hi {
		return nil, nil
	}
	f, err := r.fs.Open(r.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []view.Row
	for _, g := range r.groups[lo:hi] {
		payload, err := r.readBlock(f, g, viewRowBytes)
		if err != nil {
			return nil, err
		}
		d := &decoder{b: payload}
		for i := 0; i < int(g.Count); i++ {
			out = append(out, view.Row{
				T:      g.T,
				Lambda: int(int32(d.uint32())),
				Lo:     d.float(),
				Hi:     d.float(),
				Prob:   d.float(),
			})
		}
		if d.err {
			return nil, fmt.Errorf("%w: block decode at t=%d in %s", ErrCorrupt, g.T, r.path)
		}
	}
	return out, nil
}

// AllViewRows returns every Omega row in the segment.
func (r *Reader) AllViewRows() ([]view.Row, error) {
	if len(r.groups) == 0 {
		return nil, nil
	}
	return r.ViewRows(r.groups[0].T, r.groups[len(r.groups)-1].T)
}

// Points returns the raw points with timestamp in [tLo, tHi].
func (r *Reader) Points(tLo, tHi int64) ([]timeseries.Point, error) {
	if r.Kind != KindRaw {
		return nil, fmt.Errorf("%w: Points on kind %d", ErrCorrupt, r.Kind)
	}
	lo, hi := r.searchGroups(tLo, tHi)
	if lo >= hi {
		return nil, nil
	}
	f, err := r.fs.Open(r.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []timeseries.Point
	for _, g := range r.groups[lo:hi] {
		payload, err := r.readBlock(f, g, rawPointBytes)
		if err != nil {
			return nil, err
		}
		d := &decoder{b: payload}
		for i := 0; i < int(g.Count); i++ {
			p := timeseries.Point{T: d.int64(), V: d.float()}
			if p.T >= tLo && p.T <= tHi {
				out = append(out, p)
			}
		}
		if d.err {
			return nil, fmt.Errorf("%w: block decode at t=%d in %s", ErrCorrupt, g.T, r.path)
		}
	}
	return out, nil
}

// AllPoints returns every raw point in the segment.
func (r *Reader) AllPoints() ([]timeseries.Point, error) {
	if len(r.groups) == 0 {
		return nil, nil
	}
	return r.Points(r.groups[0].T, math.MaxInt64)
}

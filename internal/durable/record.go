// Package durable is the crash-safe storage engine behind the catalog: a
// write-ahead log (internal/wal) that records every committed mutation
// before it is acknowledged, immutable segment files the log is
// checkpointed into, and a recovery path that reconstructs exactly the
// acknowledged state from manifest + segments + log replay. One byte
// format serves both: a segment file is one sealed record of this file's
// codec (see segment.go), as a WAL frame holds one.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
)

// ErrBadRecord reports bytes that do not hold the record they should: a
// WAL payload that does not decode, or a segment file whose magic, frame
// or record does not verify, or whose record is not the table its manifest
// entry lists. WAL framing already catches torn bytes via CRC, so a bad
// WAL record means a version mismatch or a software bug; a bad segment,
// which is read whole, is corruption too. Recovery stops rather than
// guessing.
var ErrBadRecord = errors.New("durable: malformed record")

// Record kinds, one per storage.CommitLog method. The bytes are the
// on-disk format. Kinds 2 (append-raw), 4 (append-rows), 5 (step: one
// point and its rows) and 7 (reset) are retired: a log holding one fails
// recovery with ErrBadRecord.
const (
	recCreateRaw byte = 1
	recStoreView byte = 3
	recDrop      byte = 6
	recSteps     byte = 8
)

// record is the decoded form of one WAL payload; which fields are
// meaningful depends on kind.
type record struct {
	kind     byte
	name     string // table the record targets (raw or view)
	timeCol  string
	valueCol string
	source   string
	metric   string
	omega    view.Omega
	pts      []timeseries.Point
	rows     []view.Row
	viewName string // steps: the view receiving rows
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendPoint(dst []byte, p timeseries.Point) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.T))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.V))
}

func appendPoints(dst []byte, pts []timeseries.Point) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	for _, p := range pts {
		dst = appendPoint(dst, p)
	}
	return dst
}

func appendRow(dst []byte, r view.Row) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.T))
	dst = binary.AppendVarint(dst, int64(r.Lambda))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Lo))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Hi))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Prob))
}

func appendRowBatch(dst []byte, rows []view.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = appendRow(dst, r)
	}
	return dst
}

func encodeCreateRaw(name, timeCol, valueCol string, pts []timeseries.Point) []byte {
	dst := []byte{recCreateRaw}
	dst = appendStr(dst, name)
	dst = appendStr(dst, timeCol)
	dst = appendStr(dst, valueCol)
	return appendPoints(dst, pts)
}

func encodeStoreView(meta storage.ViewMeta, rows []view.Row) []byte {
	dst := []byte{recStoreView}
	dst = appendStr(dst, meta.Name)
	dst = appendStr(dst, meta.Source)
	dst = appendStr(dst, meta.MetricName)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(meta.Omega.Delta))
	dst = binary.AppendVarint(dst, int64(meta.Omega.N))
	return appendRowBatch(dst, rows)
}

// encodeSteps writes one ingest request: the source and view names, the
// points, then the rows of all of them.
func encodeSteps(source string, pts []timeseries.Point, viewName string, rows []view.Row) []byte {
	dst := []byte{recSteps}
	dst = appendStr(dst, source)
	dst = appendStr(dst, viewName)
	dst = appendPoints(dst, pts)
	return appendRowBatch(dst, rows)
}

func encodeDrop(name string) []byte {
	return appendStr([]byte{recDrop}, name)
}

// dec is a bounds-checked cursor over one record payload. Every read
// reports failure through ok; decode checks once at the end, so a
// truncated or hostile payload degrades to ErrBadRecord, never a panic
// or an oversized allocation.
type dec struct {
	b     []byte
	ok    bool
	names map[string]string // interns decoded strings across records
}

func (d *dec) u8() byte {
	if len(d.b) < 1 {
		d.ok = false
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u64() uint64 {
	if len(d.b) < 8 {
		d.ok = false
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.ok = false
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.ok = false
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) str() string {
	n := d.uvarint()
	if !d.ok || n > uint64(len(d.b)) {
		d.ok = false
		return ""
	}
	b := d.b[:n]
	d.b = d.b[n:]
	s, ok := d.names[string(b)] // no allocation for the lookup key
	if !ok {
		s = string(b)
		d.names[s] = s
	}
	return s
}

// count reads a collection length and rejects one that could not fit in
// the remaining bytes at minSize each — the allocation guard.
func (d *dec) count(minSize int) int {
	n := d.uvarint()
	if !d.ok || n > uint64(len(d.b))/uint64(minSize) {
		d.ok = false
		return 0
	}
	return int(n)
}

func (d *dec) points() []timeseries.Point {
	n := d.count(16)
	if !d.ok {
		return nil
	}
	pts := make([]timeseries.Point, n)
	for i := range pts {
		pts[i] = timeseries.Point{T: int64(d.u64()), V: d.f64()}
	}
	return pts
}

func (d *dec) rowBatch() []view.Row {
	n := d.count(12) // 8-byte T + varint lambda (≥1) + 24 bytes of floats ≥ 12 floor
	if !d.ok {
		return nil
	}
	rows := make([]view.Row, n)
	for i := range rows {
		rows[i] = view.Row{
			T: int64(d.u64()), Lambda: int(d.varint()),
			Lo: d.f64(), Hi: d.f64(), Prob: d.f64(),
		}
	}
	return rows
}

// decodeRecord parses one WAL payload. Trailing bytes are rejected: a
// record is exactly its encoding. Strings are interned in names, so a
// replay of many step records holds one copy of each table name.
func decodeRecord(b []byte, names map[string]string) (record, error) {
	d := &dec{b: b, ok: true, names: names}
	r := record{kind: d.u8()}
	switch r.kind {
	case recCreateRaw:
		r.name = d.str()
		r.timeCol = d.str()
		r.valueCol = d.str()
		r.pts = d.points()
	case recStoreView:
		r.name = d.str()
		r.source = d.str()
		r.metric = d.str()
		r.omega.Delta = d.f64()
		r.omega.N = int(d.varint())
		r.rows = d.rowBatch()
	case recSteps:
		r.source = d.str()
		r.viewName = d.str()
		if r.pts = d.points(); len(r.pts) == 0 {
			d.ok = false // never written: a request holds at least one point
		}
		r.rows = d.rowBatch()
	case recDrop:
		r.name = d.str()
	default:
		return record{}, fmt.Errorf("%w: unknown kind %d", ErrBadRecord, r.kind)
	}
	if !d.ok || len(d.b) != 0 {
		return record{}, fmt.Errorf("%w: kind %d", ErrBadRecord, r.kind)
	}
	return r, nil
}

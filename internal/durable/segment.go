package durable

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/wal"
)

// segMagic opens every segment file. The rest of the file is one
// wal.AppendFrame frame whose payload is one record in the WAL's own
// codec: a create-raw record for a raw table's points, a store-view record
// for a view's rows. A checkpoint writes a segment once, with seal, and
// recovery reads it back whole.
var segMagic = []byte("TSG2")

// seal writes data to path atomically: temp file, write, sync, close,
// rename. A crash at any boundary leaves either no file under path or the
// whole of data, never a torn one. Segments and the manifest are sealed.
func seal(fs wal.FS, path string, data []byte) error {
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
	return nil
}

// writeSegment seals payload, one encoded record, as the segment at path.
// A payload whose length does not fit the frame's u32 fails the write:
// recovery would reject the wrapped length.
func writeSegment(fs wal.FS, path string, payload []byte) error {
	if uint64(len(payload)) > math.MaxUint32 {
		return fmt.Errorf("durable: segment %s: %d-byte record exceeds the frame length", path, len(payload))
	}
	sp := obs.StartSpan(metSegSeal)
	data := make([]byte, 0, len(segMagic)+8+len(payload)) // 8: the frame header
	data = wal.AppendFrame(append(data, segMagic...), payload)
	if err := seal(fs, path, data); err != nil {
		return err
	}
	sp.End()
	metSegsWritten.Inc()
	metSegBytesWritten.Add(int64(len(data)))
	return nil
}

// readSegment reads the segment at path whole and returns its record. The
// record must match want in every field but its points and rows: the kind,
// the table name and the metadata the manifest lists for the table. Any
// other file fails with ErrBadRecord.
func readSegment(fs wal.FS, path string, want record) (record, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return record{}, err
	}
	metSegsOpened.Inc()
	metSegBytesRead.Add(int64(len(data)))
	body, ok := bytes.CutPrefix(data, segMagic)
	if !ok {
		return record{}, fmt.Errorf("%w: segment %s: bad magic", ErrBadRecord, path)
	}
	payload, ok := wal.ParseFrame(body)
	if !ok {
		return record{}, fmt.Errorf("%w: segment %s: frame length or checksum does not verify", ErrBadRecord, path)
	}
	r, err := decodeRecord(payload, make(map[string]string))
	if err != nil {
		return record{}, fmt.Errorf("segment %s: %w", path, err)
	}
	if r.kind != want.kind || r.name != want.name || r.timeCol != want.timeCol ||
		r.valueCol != want.valueCol || r.source != want.source || r.metric != want.metric ||
		r.omega != want.omega {
		return record{}, fmt.Errorf("%w: segment %s holds kind %d table %q, not what the manifest lists",
			ErrBadRecord, path, r.kind, r.name)
	}
	return r, nil
}

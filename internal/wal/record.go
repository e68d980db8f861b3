package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// Record framing: every record is stored as
//
//	length  uint32 (little-endian, payload bytes)
//	crc     uint32 (IEEE CRC32 of the payload)
//	payload [length]byte
//
// The frame is self-delimiting and self-verifying, so the reader can walk
// a log file record by record and stop cleanly at the first torn or
// corrupt frame — which is exactly what a crash mid-append leaves behind.

const (
	frameHeader = 8
	// MaxRecordBytes bounds a single record; a length field above it is
	// treated as corruption rather than an allocation request. Large
	// ingest batches stay far below this — an Omega row encodes to a few
	// dozen bytes.
	MaxRecordBytes = 64 << 20
)

// AppendFrame appends the framed record to dst and returns the extended
// slice. It never fails; oversized payloads are the caller's to reject
// (Log.Append does).
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ParseFrame returns the payload of b when b is exactly one frame: its
// length field equals the bytes that follow the header and its CRC
// verifies. Unlike ReadRecords it applies no MaxRecordBytes cap, since the
// bytes are already in memory.
func ParseFrame(b []byte) ([]byte, bool) {
	if len(b) < frameHeader {
		return nil, false
	}
	payload := b[frameHeader:]
	if uint64(binary.LittleEndian.Uint32(b[0:4])) != uint64(len(payload)) ||
		crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, false
	}
	return payload, true
}

// ReadRecords scans framed records from r, invoking fn with each verified
// payload. The payload slice is reused between calls; fn must not retain
// it.
//
// It returns the byte offset just past the last valid record, and whether
// the stream ended cleanly on a record boundary. A truncated header, a
// short payload, an oversize length or a CRC mismatch all stop the scan
// with clean=false and a nil error — corruption is an expected crash
// artifact, not a failure. Only an fn error or a non-EOF read error is
// returned as err.
func ReadRecords(r io.Reader, fn func(payload []byte) error) (n int64, clean bool, err error) {
	var hdr [frameHeader]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return n, true, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return n, false, nil
			}
			return n, false, err
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length > MaxRecordBytes {
			return n, false, nil
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return n, false, nil
			}
			return n, false, err
		}
		if crc32.ChecksumIEEE(payload) != want {
			return n, false, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return n, false, err
			}
		}
		n += frameHeader + int64(length)
	}
}

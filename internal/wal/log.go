package wal

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Options tunes a Log.
type Options struct {
	// Fsync syncs the live file after every Append, making each record
	// crash-durable before the append returns — the setting behind every
	// acknowledged ingest commit. With Fsync off, records reach stable
	// storage only on rotation, explicit Sync, or Close: much faster, but
	// a crash may lose the unsynced tail (never a torn prefix of it being
	// mistaken for data — framing catches that).
	Fsync bool
	// FileBytes is the rotation threshold for the live file. 0 selects
	// 8 MiB.
	FileBytes int64
}

const defaultFileBytes = 8 << 20

// Log is the append side of the write-ahead log: records go to numbered
// files wal-<seq>.log inside a directory, rotating to the next sequence
// number when the live file exceeds the threshold. Append is safe for
// concurrent use; the record order in the files is the commit order.
//
// A Log never appends to a file it did not create: recovery always opens
// a fresh sequence number past every existing file, so a truncated or
// torn predecessor is left sealed exactly as recovery cut it.
type Log struct {
	fs  FS
	dir string
	opt Options

	mu     sync.Mutex
	f      File
	seq    uint64
	size   int64
	buf    []byte
	err    error // poison: first write/sync failure, sticky
	closed bool
}

// FileName returns the log file name for a sequence number.
func FileName(seq uint64) string { return fmt.Sprintf("wal-%016d.log", seq) }

// ParseFileName extracts the sequence number from a log file name.
func ParseFileName(name string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	s, ok = strings.CutSuffix(s, ".log")
	if !ok || len(s) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// List returns the sequence numbers of the log files in dir, ascending.
// A missing directory is an empty log, not an error.
func List(fs FS, dir string) ([]uint64, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil
	}
	var seqs []uint64
	for _, name := range names {
		if seq, ok := ParseFileName(name); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// ReplayFile reads the records of one log file in order, passing each
// verified payload to fn. A torn or corrupt tail is truncated off the
// file and reported with clean=false; the records before it were applied.
// fn errors and I/O errors abort the replay.
func ReplayFile(fs FS, dir string, seq uint64, fn func(payload []byte) error) (clean bool, err error) {
	path := filepath.Join(dir, FileName(seq))
	f, err := fs.Open(path)
	if err != nil {
		return false, err
	}
	n, clean, err := ReadRecords(f, fn)
	f.Close()
	if err != nil {
		return false, err
	}
	if !clean {
		if terr := fs.Truncate(path, n); terr != nil {
			return false, terr
		}
		metTornTails.Inc()
	}
	return clean, nil
}

// OpenLog starts a new live log file at the given sequence number. The
// caller (recovery) picks seq past every existing file so sealed history
// is never rewritten.
func OpenLog(fs FS, dir string, seq uint64, opt Options) (*Log, error) {
	if opt.FileBytes <= 0 {
		opt.FileBytes = defaultFileBytes
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	f, err := fs.Create(filepath.Join(dir, FileName(seq)))
	if err != nil {
		return nil, err
	}
	return &Log{fs: fs, dir: dir, opt: opt, f: f, seq: seq}, nil
}

// Append commits one record: frame, write, and (with Options.Fsync) sync
// before returning. Once Append returns nil the record is recoverable —
// that is the acknowledgement contract StepDetailed relies on. A write or
// sync failure poisons the log: the on-disk tail is suspect, so every
// later Append fails with ErrPoisoned until the log is reopened through
// recovery.
func (l *Log) Append(payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return fmt.Errorf("%w: %v", ErrPoisoned, l.err)
	}
	if l.size >= l.opt.FileBytes {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return err
		}
	}
	l.buf = AppendFrame(l.buf[:0], payload)
	if _, err := l.f.Write(l.buf); err != nil {
		l.err = err
		return err
	}
	l.size += int64(len(l.buf))
	if l.opt.Fsync {
		syncStart := time.Now()
		if err := l.f.Sync(); err != nil {
			l.err = err
			return err
		}
		obs.ObserveSince(metFsync, syncStart)
	}
	metRecords.Inc()
	metBytes.Add(int64(len(l.buf)))
	obs.ObserveSince(metAppend, start)
	return nil
}

// Sync flushes the live file: it always calls File.Sync, whatever
// Options.Fsync says. With Fsync off, callers use it to place an explicit
// durability barrier; with Fsync on, every Append already synced its own
// record, so a Sync between appends repeats that sync.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return fmt.Errorf("%w: %v", ErrPoisoned, l.err)
	}
	syncStart := time.Now()
	if err := l.f.Sync(); err != nil {
		l.err = err
		return err
	}
	obs.ObserveSince(metFsync, syncStart)
	return nil
}

// Rotate seals the live file (sync + close) and opens the next sequence
// number. It returns the sequence number of the new live file; every
// record appended before the call is in files strictly below it. The
// checkpointer rotates inside the catalog lock so "flushed to segments"
// and "still in the WAL" partition exactly at the returned boundary.
func (l *Log) Rotate() (liveSeq uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, fmt.Errorf("%w: %v", ErrPoisoned, l.err)
	}
	if err := l.rotateLocked(); err != nil {
		l.err = err
		return 0, err
	}
	return l.seq, nil
}

func (l *Log) rotateLocked() error {
	syncStart := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	obs.ObserveSince(metFsync, syncStart)
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := l.fs.Create(filepath.Join(l.dir, FileName(l.seq+1)))
	if err != nil {
		return err
	}
	l.f, l.seq, l.size = f, l.seq+1, 0
	metRotations.Inc()
	return nil
}

// Close syncs and closes the live file. A poisoned log closes without
// touching the file again.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.err != nil {
		l.f.Close()
		return nil
	}
	syncStart := time.Now()
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	obs.ObserveSince(metFsync, syncStart)
	return l.f.Close()
}

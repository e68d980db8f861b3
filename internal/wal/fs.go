// Package wal implements the write-ahead log that makes acknowledged
// ingest durable: length-prefixed, CRC32-checksummed records appended to a
// sequence of numbered log files, replayed on open with torn tails
// truncated. Everything goes through the pluggable FS interface so the
// crash-injection harness (subpackage faultfs) can kill the log at any
// write, sync or rename boundary and prove recovery exact.
package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Errors reported by the log.
var (
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: log closed")
	// ErrPoisoned reports an append to a log that previously failed a
	// write or sync. The on-disk tail is suspect after such a failure, so
	// the log refuses all further appends; recovery (reopen) is the only
	// way forward. The wrapped first failure is preserved.
	ErrPoisoned = errors.New("wal: log poisoned by earlier write failure")
	// ErrTooLarge reports a record over the framing limit.
	ErrTooLarge = errors.New("wal: record exceeds size limit")
)

// File is a writable log or segment file. Write buffers in the OS page
// cache; only Sync makes the bytes crash-durable.
type File interface {
	io.Writer
	// Sync flushes written bytes to stable storage.
	Sync() error
	Close() error
}

// ReadFile is a readable log or segment file.
type ReadFile interface {
	io.Reader
	Close() error
}

// FS is the filesystem surface the durability layer runs on. The
// production implementation is OS(); tests substitute faultfs.FS to
// inject crashes at any operation boundary.
//
// Rename is atomic and immediately durable (the OS implementation syncs
// the parent directory); file data written through File.Write is durable
// only after File.Sync.
type FS interface {
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (ReadFile, error)
	// ReadFile reads name whole into one buffer sized from the file.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the file names (not paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	// Truncate cuts name to size bytes (used to drop torn log tails).
	Truncate(name string, size int64) error
}

// OS returns the production FS backed by the operating system.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (osFS) Open(name string) (ReadFile, error) { return os.Open(name) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Rename renames and then syncs the parent directory, so the new name is
// durable once Rename returns — the property the atomic seal pattern
// (write temp, sync, rename) relies on.
func (osFS) Rename(oldname, newname string) error {
	if err := os.Rename(oldname, newname); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(newname))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

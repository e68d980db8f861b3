// Package faultfs is an in-memory wal.FS with OS-crash semantics and
// deterministic fault injection: every mutating filesystem operation is a
// numbered crash point, and the harness can kill the filesystem at any of
// them, then reopen the surviving bytes and assert what recovery finds.
//
// The durability model mirrors a journaled filesystem with a volatile
// page cache:
//
//   - File.Write lands in the cache; only File.Sync moves the written
//     prefix to stable storage.
//   - Rename is atomic and immediately durable (the production FS syncs
//     the parent directory), but the renamed file's data still honours
//     its own sync watermark.
//   - At a crash, unsynced bytes survive according to the armed Mode:
//     conservatively not at all, as a torn half, or completely — the
//     three outcomes a real power cut can leave behind.
//
// With no fault armed the package is just a fast in-memory filesystem,
// which the fuzz targets use as scratch space.
package faultfs

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync"

	"repro/internal/wal"
)

// ErrCrashed is returned by every operation after the armed crash point
// fires: the simulated process is dead and no further I/O happens.
var ErrCrashed = errors.New("faultfs: crashed at injected fault")

// Mode selects how much of the unsynced page cache survives the crash.
type Mode int

const (
	// DropUnsynced loses every byte not covered by a successful Sync —
	// the conservative power-cut. Acknowledged (synced) state survives
	// exactly; nothing else does.
	DropUnsynced Mode = iota
	// KeepHalfUnsynced persists half of each file's unsynced tail — a
	// torn flush. Exercises the reader's CRC truncation.
	KeepHalfUnsynced
	// KeepAllUnsynced persists every written byte — the crash happened
	// after the cache reached the platter but before the ack. Recovery
	// may legitimately contain complete-but-unacknowledged records.
	KeepAllUnsynced
)

func (m Mode) String() string {
	switch m {
	case DropUnsynced:
		return "drop-unsynced"
	case KeepHalfUnsynced:
		return "keep-half-unsynced"
	case KeepAllUnsynced:
		return "keep-all-unsynced"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

type file struct {
	data   []byte // full page-cache content
	synced int    // prefix known to be on stable storage
}

// FS is the fault-injecting filesystem. The zero value is not usable;
// call New.
type FS struct {
	mu      sync.Mutex
	files   map[string]*file
	ops     int
	failAt  int // crash when the ops counter reaches this value; 0 = never
	mode    Mode
	crashed bool
}

// New returns an empty filesystem with no fault armed.
func New() *FS { return &FS{files: make(map[string]*file)} }

// FailAt arms a crash at the op-th mutating operation (1-based), with the
// given survival mode. Arming op 0 disarms.
func (f *FS) FailAt(op int, mode Mode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt, f.mode = op, mode
}

// Ops reports how many mutating operations have run — the size of the
// crash-point matrix for a given workload.
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the armed fault has fired.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// step counts one mutating operation and fires the armed fault when the
// counter reaches it. Caller holds f.mu.
func (f *FS) step() bool {
	if f.crashed {
		return true
	}
	f.ops++
	if f.failAt > 0 && f.ops >= f.failAt {
		f.crashed = true
	}
	return f.crashed
}

// survived returns the post-crash content of one file under mode.
func survived(fl *file, mode Mode) []byte {
	keep := fl.synced
	switch mode {
	case KeepHalfUnsynced:
		keep += (len(fl.data) - fl.synced) / 2
	case KeepAllUnsynced:
		keep = len(fl.data)
	}
	return append([]byte(nil), fl.data[:keep]...)
}

// CrashImage returns a fresh, healthy filesystem holding what survived
// the crash (or survives one right now, if no fault fired): each file is
// cut to its mode-dependent durable prefix. Recovery runs against the
// image exactly as a restarted process runs against the real disk.
func (f *FS) CrashImage() *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	img := New()
	for name, fl := range f.files {
		data := survived(fl, f.mode)
		img.files[name] = &file{data: data, synced: len(data)}
	}
	return img
}

// --- wal.FS implementation ---

func (f *FS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil // directories are implicit
}

func (f *FS) Create(name string) (wal.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.step() {
		return nil, ErrCrashed
	}
	f.files[name] = &file{}
	return &handle{fs: f, name: name}, nil
}

func (f *FS) Open(name string) (wal.ReadFile, error) {
	data, err := f.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return &reader{Reader: bytes.NewReader(data)}, nil
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	fl, ok := f.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), fl.data...), nil
}

func (f *FS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	prefix := strings.TrimSuffix(dir, "/") + "/"
	var names []string
	for name := range f.files {
		if rest, ok := strings.CutPrefix(name, prefix); ok && !strings.Contains(rest, "/") {
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (f *FS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.step() {
		return ErrCrashed
	}
	fl, ok := f.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(f.files, oldname)
	f.files[newname] = fl
	return nil
}

func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.step() {
		return ErrCrashed
	}
	if _, ok := f.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(f.files, name)
	return nil
}

func (f *FS) Truncate(name string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.step() {
		return ErrCrashed
	}
	fl, ok := f.files[name]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	if size < 0 || size > int64(len(fl.data)) {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrInvalid}
	}
	fl.data = fl.data[:size]
	if fl.synced > int(size) {
		fl.synced = int(size)
	}
	return nil
}

// WriteExisting seeds a file with already-durable content, for tests that
// start from a synthesised disk image.
func (f *FS) WriteExisting(name string, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := append([]byte(nil), data...)
	f.files[name] = &file{data: d, synced: len(d)}
}

// ReadBack returns the current page-cache content of a file (test
// inspection; not part of wal.FS).
func (f *FS) ReadBack(name string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fl, ok := f.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), fl.data...), true
}

// handle is an open writable file.
type handle struct {
	fs     *FS
	name   string
	closed bool
}

// Write appends to the page cache. A write that hits the crash point is
// torn: half its bytes land in the cache before the failure, modelling an
// interrupted syscall.
func (h *handle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	fl, ok := h.fs.files[h.name]
	if !ok || h.closed {
		return 0, fs.ErrClosed
	}
	if h.fs.step() {
		fl.data = append(fl.data, p[:len(p)/2]...)
		return 0, ErrCrashed
	}
	fl.data = append(fl.data, p...)
	return len(p), nil
}

// Sync advances the durable watermark to the full cache content. A sync
// that hits the crash point fails before the flush completes: the
// watermark does not move (the Mode decides at CrashImage time how much
// of the cache survives anyway).
func (h *handle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	fl, ok := h.fs.files[h.name]
	if !ok || h.closed {
		return fs.ErrClosed
	}
	if h.fs.step() {
		return ErrCrashed
	}
	fl.synced = len(fl.data)
	return nil
}

// Close releases the handle. Like the OS call it does not flush — close
// is metadata only, so it is not a crash point.
func (h *handle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	h.closed = true
	return nil
}

type reader struct{ *bytes.Reader }

func (r *reader) Close() error { return nil }

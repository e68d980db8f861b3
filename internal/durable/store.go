package durable

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/timeseries"
	"repro/internal/view"
	"repro/internal/wal"
)

// Options tunes a Store.
type Options struct {
	// Fsync syncs the WAL after every commit, making each acknowledged
	// mutation durable against power loss. Off, commits are only as
	// durable as the page cache — faster, and still torn-write safe.
	Fsync bool
	// WALFileBytes is the WAL rotation threshold (0: wal default).
	WALFileBytes int64
	// CheckpointBytes triggers a background checkpoint once this many
	// record bytes accumulate in the WAL. 0 selects 4 MiB; negative
	// disables automatic checkpoints (explicit Checkpoint still works).
	CheckpointBytes int64
}

const defaultCheckpointBytes = 4 << 20

// Store is the durable engine wrapped around a storage.DB: it implements
// storage.CommitLog so every catalog mutation is WAL-logged before it is
// applied, and checkpoints the log into immutable segment files.
//
// Layout inside the data directory:
//
//	MANIFEST        checkpoint commit point (JSON, atomically replaced)
//	wal/wal-*.log   write-ahead log files (framed, CRC-checked records)
//	seg/*.seg       immutable segment files (one sealed record each)
type Store struct {
	fs  wal.FS
	dir string
	opt Options
	db  *storage.DB
	log *wal.Log

	// wmMu guards the durability bookkeeping: how many rows/points of
	// each table are covered by segment files, which segment files, and
	// a per-table generation stamp used to discard checkpoint results
	// that raced a wholesale table replacement. Always acquired after
	// the catalog/table locks, never before.
	wmMu     sync.Mutex
	rawWM    map[string]int
	viewWM   map[string]int
	rawSegs  map[string][]string
	viewSegs map[string][]string
	gen      map[string]uint64
	genSeq   uint64
	segSeq   uint64 // next segment file number

	ckptMu  sync.Mutex // serialises checkpoints
	pending atomic.Int64

	trigger  chan struct{}
	stop     chan struct{}
	done     chan struct{}
	closed   sync.Once
	closeErr error

	recovery RecoveryStats // what Open replayed; immutable afterwards
}

func (s *Store) walDir() string { return filepath.Join(s.dir, "wal") }
func (s *Store) segDir() string { return filepath.Join(s.dir, "seg") }

// DB returns the catalog this store backs.
func (s *Store) DB() *storage.DB { return s.db }

// Open recovers (or initialises) the durable state under dir and returns
// the store with its catalog at exactly the acknowledged state: every
// manifest table, raw or view, is read whole from its segments, then the
// WAL is replayed with the logger detached, truncating a torn tail. A
// fresh WAL file past every existing sequence number becomes the live
// log — recovery never appends to a file it did not create. A segment that
// is missing, corrupt or disagrees with the manifest fails Open with an
// error naming the table and the file, before any file is changed.
func Open(fs wal.FS, dir string, opt Options) (*Store, error) {
	start := time.Now()
	if opt.CheckpointBytes == 0 {
		opt.CheckpointBytes = defaultCheckpointBytes
	}
	s := &Store{
		fs: fs, dir: dir, opt: opt,
		db:       storage.NewDB(),
		rawWM:    make(map[string]int),
		viewWM:   make(map[string]int),
		rawSegs:  make(map[string][]string),
		viewSegs: make(map[string][]string),
		gen:      make(map[string]uint64),
		trigger:  make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, d := range []string{dir, s.walDir(), s.segDir()} {
		if err := fs.MkdirAll(d); err != nil {
			return nil, err
		}
	}
	m, err := readManifest(fs, dir)
	if err != nil {
		return nil, err
	}
	if m != nil {
		if err := s.loadManifest(m); err != nil {
			return nil, err
		}
	}
	var floor uint64
	if m != nil {
		floor = m.WalSeq
	}
	liveSeq, err := s.replayWAL(floor)
	if err != nil {
		return nil, err
	}
	s.gcSegments(s.referencedSegs())
	log, err := wal.OpenLog(fs, s.walDir(), liveSeq, wal.Options{
		Fsync: opt.Fsync, FileBytes: opt.WALFileBytes,
	})
	if err != nil {
		return nil, err
	}
	s.log = log
	s.db.SetCommitLog(s)
	s.recovery.Duration = obs.ObserveSince(metReplaySeconds, start)
	metRecoveries.Inc()
	go s.checkpointLoop()
	return s, nil
}

// loadManifest reconstructs the checkpointed catalog: every raw table and
// every view is read from its segments and registered resident. Runs
// inside Open, before the Store is shared with any goroutine, so no lock
// is held.
func (s *Store) loadManifest(m *manifest) error {
	for _, r := range m.Raw {
		var pts []timeseries.Point
		want := record{kind: recCreateRaw, name: r.Name, timeCol: r.TimeCol, valueCol: r.ValueCol}
		for _, path := range r.Segments {
			seg, err := readSegment(s.fs, path, want)
			if err != nil {
				return fmt.Errorf("durable: raw table %q: %w", r.Name, err)
			}
			s.recovery.SegmentsOpened++
			pts = append(pts, seg.pts...)
		}
		if len(pts) != r.Rows {
			return fmt.Errorf("%w: raw table %q: segments %s hold %d points, manifest says %d",
				ErrBadRecord, r.Name, strings.Join(r.Segments, ", "), len(pts), r.Rows)
		}
		series, err := timeseries.New(pts)
		if err != nil {
			return fmt.Errorf("durable: raw table %q: %w", r.Name, err)
		}
		if _, err := s.db.CreateRawTable(r.Name, r.TimeCol, r.ValueCol, series); err != nil {
			return err
		}
		s.rawWM[r.Name] = len(pts)
		s.rawSegs[r.Name] = append([]string(nil), r.Segments...)
	}
	for _, v := range m.Views {
		rows, err := s.loadView(v)
		if err != nil {
			return err
		}
		s.recovery.SegmentsOpened += len(v.Segments)
		meta := storage.ViewMeta{Name: v.Name, Source: v.Source, MetricName: v.Metric,
			Omega: view.Omega{Delta: v.Delta, N: v.N}}
		if err := s.db.StoreView(storage.NewProbTable(meta, rows)); err != nil {
			return err
		}
		s.viewWM[v.Name] = v.Rows
		s.viewSegs[v.Name] = append([]string(nil), v.Segments...)
	}
	return nil
}

// loadView reads a view's rows from the segment files its manifest entry
// lists, in order, and checks their count against the entry.
func (s *Store) loadView(v manifestView) ([]view.Row, error) {
	want := record{kind: recStoreView, name: v.Name, source: v.Source, metric: v.Metric,
		omega: view.Omega{Delta: v.Delta, N: v.N}}
	var rows []view.Row
	for _, path := range v.Segments {
		seg, err := readSegment(s.fs, path, want)
		if err != nil {
			return nil, fmt.Errorf("durable: view %q: %w", v.Name, err)
		}
		if rows == nil {
			rows = seg.rows // one segment: no copy
		} else {
			rows = append(rows, seg.rows...)
		}
	}
	if len(rows) != v.Rows {
		return nil, fmt.Errorf("%w: view %q: segments %s hold %d rows, manifest says %d",
			ErrBadRecord, v.Name, strings.Join(v.Segments, ", "), len(rows), v.Rows)
	}
	return rows, nil
}

// replayWAL applies every log file at or above floor, removes stale files
// below it (a crashed trim), and returns the sequence number for the new
// live file — strictly past everything on disk. Runs inside Open, before
// the Store is shared with any goroutine, so no lock is held.
func (s *Store) replayWAL(floor uint64) (uint64, error) {
	seqs, err := wal.List(s.fs, s.walDir())
	if err != nil {
		return 0, err
	}
	live := floor
	for _, seq := range seqs {
		if seq > live {
			live = seq
		}
		if seq < floor {
			// Covered by the manifest; a crash interrupted the trim.
			s.fs.Remove(filepath.Join(s.walDir(), wal.FileName(seq)))
			continue
		}
	}
	names := make(map[string]string)
	for _, seq := range seqs {
		if seq < floor {
			continue
		}
		clean, err := wal.ReplayFile(s.fs, s.walDir(), seq, func(payload []byte) error {
			s.recovery.RecordsReplayed++
			metReplayRecords.Inc()
			return s.apply(payload, names)
		})
		if err != nil {
			return 0, fmt.Errorf("durable: replay %s: %w", wal.FileName(seq), err)
		}
		s.recovery.WALFilesReplayed++
		if !clean {
			// The torn tail was truncated off; nothing after it was
			// acknowledged, so recovery stops here.
			s.recovery.TornTail = true
			break
		}
	}
	return live + 1, nil
}

// apply re-applies one replayed record to the catalog, which has no
// commit log attached yet; names interns the record's strings.
func (s *Store) apply(payload []byte, names map[string]string) error {
	r, err := decodeRecord(payload, names)
	if err != nil {
		return err
	}
	db := s.db
	switch r.kind {
	case recCreateRaw:
		series, err := timeseries.New(r.pts)
		if err != nil {
			return err
		}
		if _, err := db.CreateRawTable(r.name, r.timeCol, r.valueCol, series); err != nil {
			return err
		}
		s.noteCreateRaw(r.name)
	case recStoreView:
		meta := storage.ViewMeta{Name: r.name, Source: r.source, MetricName: r.metric, Omega: r.omega}
		if err := db.StoreView(storage.NewProbTable(meta, r.rows)); err != nil {
			return err
		}
		s.noteStoreView(r.name)
	case recSteps:
		p, err := db.View(r.viewName)
		if err != nil {
			return err
		}
		return db.CommitSteps(r.source, r.pts, p, r.rows)
	case recDrop:
		if err := db.Drop(r.name); err != nil {
			return err
		}
		s.noteDrop(r.name)
	default:
		return fmt.Errorf("%w: kind %d", ErrBadRecord, r.kind)
	}
	return nil
}

// --- storage.CommitLog: log-before-apply hooks -------------------------

// append logs one record and accounts it toward the auto-checkpoint
// threshold.
func (s *Store) append(rec []byte) error {
	if err := s.log.Append(rec); err != nil {
		return err
	}
	if s.opt.CheckpointBytes > 0 {
		if n := s.pending.Add(int64(len(rec))); n >= s.opt.CheckpointBytes {
			s.pending.Store(0)
			select {
			case s.trigger <- struct{}{}:
			default:
			}
		}
	}
	return nil
}

func (s *Store) CreateRaw(name, timeCol, valueCol string, pts []timeseries.Point) error {
	if err := s.append(encodeCreateRaw(name, timeCol, valueCol, pts)); err != nil {
		return err
	}
	s.noteCreateRaw(name)
	return nil
}

func (s *Store) StoreView(meta storage.ViewMeta, rows []view.Row) error {
	if err := s.append(encodeStoreView(meta, rows)); err != nil {
		return err
	}
	s.noteStoreView(meta.Name)
	return nil
}

// Step logs one ingest step: Steps with a single point.
func (s *Store) Step(source string, p timeseries.Point, viewName string, rows []view.Row) error {
	return s.Steps(source, []timeseries.Point{p}, viewName, rows)
}

// Steps logs one ingest request as a single steps record: one WAL append,
// so with Options.Fsync one sync however many points it holds.
func (s *Store) Steps(source string, pts []timeseries.Point, viewName string, rows []view.Row) error {
	return s.append(encodeSteps(source, pts, viewName, rows))
}

func (s *Store) Drop(name string) error {
	if err := s.append(encodeDrop(name)); err != nil {
		return err
	}
	s.noteDrop(name)
	return nil
}

// --- durability bookkeeping -------------------------------------------

// bump stamps a table with a fresh generation so a checkpoint that
// captured the table before this mutation discards its stale watermark.
// Caller holds s.wmMu.
func (s *Store) bump(name string) {
	s.genSeq++
	s.gen[name] = s.genSeq
}

func (s *Store) noteCreateRaw(name string) {
	s.wmMu.Lock()
	defer s.wmMu.Unlock()
	delete(s.rawWM, name)
	delete(s.rawSegs, name)
	s.bump(name)
}

func (s *Store) noteStoreView(name string) {
	s.wmMu.Lock()
	defer s.wmMu.Unlock()
	delete(s.viewWM, name)
	delete(s.viewSegs, name)
	s.bump(name)
}

func (s *Store) noteDrop(name string) {
	s.wmMu.Lock()
	defer s.wmMu.Unlock()
	delete(s.rawWM, name)
	delete(s.rawSegs, name)
	delete(s.viewWM, name)
	delete(s.viewSegs, name)
	s.bump(name)
}

// --- checkpoints -------------------------------------------------------

// newSegPath reserves the next segment file name for a table.
func (s *Store) newSegPath(table string) string {
	s.wmMu.Lock()
	n := s.segSeq
	s.segSeq++
	s.wmMu.Unlock()
	return filepath.Join(s.segDir(), fmt.Sprintf("%08d-%s.seg", n, table))
}

// Checkpoint flushes everything the WAL holds into segment files and
// trims the replayed prefix: rotate the log and capture every table's
// un-flushed suffix atomically under the catalog lock, write the
// suffixes as new segments, commit the new manifest (atomic rename),
// then delete WAL files below the rotation point and segment files the
// manifest no longer references. A crash anywhere leaves either the old
// checkpoint (plus full WAL) or the new one — recovery reads exactly one.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if err := s.checkpointLocked(); err != nil {
		metCkptErrors.Inc()
		return err
	}
	return nil
}

func (s *Store) checkpointLocked() error {
	ckptStart := time.Now()
	gens := make(map[string]uint64)
	segsAt := make(map[string][]string)
	rawFrom := func(name string) int {
		s.wmMu.Lock()
		defer s.wmMu.Unlock()
		gens[name] = s.gen[name]
		segsAt[name] = s.rawSegs[name]
		return s.rawWM[name]
	}
	viewFrom := func(name string) int {
		s.wmMu.Lock()
		defer s.wmMu.Unlock()
		gens[name] = s.gen[name]
		segsAt[name] = s.viewSegs[name]
		return s.viewWM[name]
	}
	var boundary uint64
	raws, views, err := s.db.CaptureCheckpoint(func() error {
		seq, err := s.log.Rotate()
		if err != nil {
			return err
		}
		boundary = seq
		return nil
	}, rawFrom, viewFrom)
	if err != nil {
		return err
	}

	m := &manifest{Version: manifestVersion, WalSeq: boundary}
	newRawSegs := make(map[string][]string)
	newViewSegs := make(map[string][]string)
	for _, r := range raws {
		refs := segsAt[r.Name]
		if len(r.Points) > 0 {
			path := s.newSegPath(r.Name)
			if err := writeSegment(s.fs, path, encodeCreateRaw(r.Name, r.TimeCol, r.ValueCol, r.Points)); err != nil {
				return err
			}
			refs = append(refs[:len(refs):len(refs)], path)
		}
		newRawSegs[r.Name] = refs
		m.Raw = append(m.Raw, manifestRaw{
			Name: r.Name, TimeCol: r.TimeCol, ValueCol: r.ValueCol,
			Rows: r.Total, Segments: refs,
		})
	}
	for _, v := range views {
		refs := segsAt[v.Meta.Name]
		if len(v.Rows) > 0 {
			path := s.newSegPath(v.Meta.Name)
			if err := writeSegment(s.fs, path, encodeStoreView(v.Meta, v.Rows)); err != nil {
				return err
			}
			refs = append(refs[:len(refs):len(refs)], path)
		}
		newViewSegs[v.Meta.Name] = refs
		m.Views = append(m.Views, manifestView{
			Name: v.Meta.Name, Source: v.Meta.Source, Metric: v.Meta.MetricName,
			Delta: v.Meta.Omega.Delta, N: v.Meta.Omega.N,
			Rows: v.Total, Segments: refs,
		})
	}
	if err := writeManifest(s.fs, s.dir, m); err != nil {
		return err
	}

	// The manifest is committed. Publish the new watermarks — except for
	// tables replaced or dropped since the capture (generation moved on):
	// their WAL records past the boundary override the manifest on
	// recovery, and the next checkpoint re-captures them from scratch.
	s.wmMu.Lock()
	for _, r := range raws {
		if s.gen[r.Name] != gens[r.Name] {
			continue
		}
		s.rawWM[r.Name] = r.Total
		s.rawSegs[r.Name] = newRawSegs[r.Name]
	}
	for _, v := range views {
		if s.gen[v.Meta.Name] != gens[v.Meta.Name] {
			continue
		}
		s.viewWM[v.Meta.Name] = v.Total
		s.viewSegs[v.Meta.Name] = newViewSegs[v.Meta.Name]
	}
	s.wmMu.Unlock()
	s.pending.Store(0)

	// Trim the WAL prefix the manifest now covers.
	if seqs, err := wal.List(s.fs, s.walDir()); err == nil {
		for _, seq := range seqs {
			if seq < boundary {
				s.fs.Remove(filepath.Join(s.walDir(), wal.FileName(seq)))
				metWalTrimmed.Inc()
			}
		}
	}
	// Drop segment files this manifest no longer references.
	referenced := make(map[string]bool, len(m.Raw)+len(m.Views))
	for _, r := range m.Raw {
		for _, p := range r.Segments {
			referenced[p] = true
		}
	}
	for _, v := range m.Views {
		for _, p := range v.Segments {
			referenced[p] = true
		}
	}
	s.gcSegments(referenced)
	metCkpts.Inc()
	metCkptWalSeq.Set(float64(boundary))
	lastCkptUnixNano.Store(time.Now().UnixNano())
	obs.ObserveSince(metCkptSeconds, ckptStart)
	return nil
}

// referencedSegs is the set of segment paths the live bookkeeping refers
// to (used at Open, where the bookkeeping mirrors the manifest).
func (s *Store) referencedSegs() map[string]bool {
	s.wmMu.Lock()
	defer s.wmMu.Unlock()
	out := make(map[string]bool)
	for _, segs := range s.rawSegs {
		for _, p := range segs {
			out[p] = true
		}
	}
	for _, segs := range s.viewSegs {
		for _, p := range segs {
			out[p] = true
		}
	}
	return out
}

// gcSegments removes .seg files not in keep, and seeds segSeq past every
// surviving file so new segment names never collide.
func (s *Store) gcSegments(keep map[string]bool) {
	names, err := s.fs.ReadDir(s.segDir())
	if err != nil {
		return
	}
	var maxSeq uint64
	for _, name := range names {
		if !strings.HasSuffix(name, ".seg") {
			continue
		}
		if i := strings.IndexByte(name, '-'); i > 0 {
			if n, err := strconv.ParseUint(name[:i], 10, 64); err == nil && n >= maxSeq {
				maxSeq = n + 1
			}
		}
		path := filepath.Join(s.segDir(), name)
		if !keep[path] {
			s.fs.Remove(path)
			metSegsDeleted.Inc()
		}
	}
	s.wmMu.Lock()
	if maxSeq > s.segSeq {
		s.segSeq = maxSeq
	}
	s.wmMu.Unlock()
}

// checkpointLoop runs byte-threshold-triggered checkpoints until Close.
func (s *Store) checkpointLoop() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			return
		case <-s.trigger:
			// A failure is counted in tspdb_checkpoint_errors_total and the
			// next trigger retries.
			_ = s.Checkpoint()
		}
	}
}

// Close stops the background checkpointer, runs a final checkpoint so
// restart replays an empty WAL, detaches the catalog, and closes the
// log. Safe to call more than once: closeErr is written only inside the
// sync.Once, whose Do orders it before every caller's read — no lock.
func (s *Store) Close() error {
	s.closed.Do(func() {
		close(s.stop)
		<-s.done
		err := s.Checkpoint()
		s.db.SetCommitLog(nil)
		if cerr := s.log.Close(); err == nil {
			err = cerr
		}
		if err != nil && !errors.Is(err, wal.ErrClosed) {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// Package storage provides the in-memory database substrate of the
// framework: a catalog of raw-value tables (the raw_values table of Fig. 1)
// and materialised probabilistic view tables (prob_view). A view table is
// held as four columns plus a timestamp group index and nothing else;
// view.Row values are built from the columns when a caller asks for rows.
// Tables support time-range scans and online appends; durability lives in
// internal/durable, which logs every mutation through CommitLog. All
// catalog operations are safe for concurrent use.
package storage

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/timeseries"
	"repro/internal/view"
)

// Errors reported by the catalog.
var (
	ErrNotFound  = errors.New("storage: table not found")
	ErrExists    = errors.New("storage: table already exists")
	ErrBadName   = errors.New("storage: invalid table name")
	ErrBadSchema = errors.New("storage: invalid schema")
)

// CommitLog receives every catalog mutation before it is applied — the
// write-ahead contract. Implementations (internal/durable) append one
// record per call to a WAL; a nil error means the record is recoverable,
// which is what lets the catalog apply the mutation and acknowledge it.
// Calls arrive in the exact order a replay must re-apply them.
type CommitLog interface {
	// CreateRaw records the registration of a raw table with its seed points.
	CreateRaw(name, timeCol, valueCol string, pts []timeseries.Point) error
	// StoreView records the registration (or wholesale replacement) of a view.
	StoreView(meta ViewMeta, rows []view.Row) error
	// Steps records one atomic ingest request: its raw points, in order,
	// and the view rows they produced (possibly none), committed together
	// as one record. It is the only way a logged table grows.
	Steps(source string, pts []timeseries.Point, view string, rows []view.Row) error
	// Drop records the removal of a table.
	Drop(name string) error
}

// ViewMeta is the identity of a probabilistic view without its rows —
// what the commit log and segment files record alongside the data.
type ViewMeta struct {
	Name       string
	Source     string
	MetricName string
	Omega      view.Omega
}

// RawTable is a raw-value time-series table with named time and value
// columns (e.g. <time, r> per Fig. 2).
type RawTable struct {
	Name     string
	TimeCol  string
	ValueCol string
	Series   *timeseries.Series
}

// ProbTable is a materialised probabilistic view: the tuple-level
// probabilistic database of Definition 2.
//
// The table is its columns. Row i of the view is (colLambda[i], colLo[i],
// colHi[i], colProb[i]) — 32 B/row — and its timestamp lives in the group
// index: one TimeGroup{T, Off, Len, Num, Den} per distinct timestamp
// (40 B/tuple) saying that rows [Off, Off+Len) belong to T, in the order
// they arrived, and carrying the tuple's expected-value sums. Rows are in
// ascending-timestamp order, all rows of a timestamp contiguous.
//
// The table also keeps one order flag: whether every tuple's Lo and Hi
// columns ascend (non-decreasing in row order) and hold no NaN, as every
// Omega grid the view builder emits does. Cols hands it to the kernels,
// which then binary-search a tuple for the rows a value range can touch;
// a table that breaks the order (only hand-built or fuzzed rows do) is
// scanned whole.
//
// There is no []view.Row copy: view.Row is the interchange type (WAL
// records, segments, JSON), and RowsAt, RowsRange, SnapshotRows and the
// checkpoint capture build rows from the columns on demand, one allocation
// of exactly the rows asked for.
//
// Rows enter only by being appended — NewProbTable, AppendRows and
// DB.CommitSteps all end in appendCols — so the index and the columns
// cannot drift apart and nothing is ever rebuilt. While a
// logged catalog holds the table, DB.CommitSteps is the only one of these
// that applies: AppendRows would bypass the log and is refused. A view
// that backs an online stream grows while readers scan it: every accessor
// serialises on the per-table lock, readers see a whole number of appended
// batches, and appends never block readers of other tables. Point and range
// accessors binary-search the group index (O(log T) in tuples, not rows);
// ForEachGroupCols and RangeCols hand the batch kernels in internal/probdb
// zero-copy column spans under the read lock.
//
// The zero value with the identity fields set is an empty view, ready for
// AppendRows or StoreView.
type ProbTable struct {
	Name       string
	Source     string // raw table the view was derived from
	MetricName string // dynamic density metric used
	Omega      view.Omega

	mu sync.RWMutex // guards every field below

	groups       []TimeGroup
	colLambda    []int
	colLo, colHi []float64
	colProb      []float64

	// unordered is set once a resident row breaks the order Cols.Ordered
	// promises: a NaN bound, or a Lo or Hi below the previous row's of the
	// same tuple. Nothing clears it.
	unordered bool

	// logged is set when the table enters a logged catalog (StoreView,
	// SetCommitLog) and cleared by Drop or by detaching the log: appends
	// must then go through DB.CommitSteps, so AppendRows refuses them.
	logged bool
}

// NewProbTable returns a view table holding rows (ascending timestamps,
// each timestamp's rows contiguous) — the way a finished offline build or
// a recovered view (a replayed store-view record, or a view's segments at
// Open) becomes a table. The rows are copied into the columns; the caller
// keeps its slice.
func NewProbTable(meta ViewMeta, rows []view.Row) *ProbTable {
	p := &ProbTable{Name: meta.Name, Source: meta.Source, MetricName: meta.MetricName, Omega: meta.Omega}
	p.appendCols(rows) // not yet shared: no lock needed
	return p
}

// Meta returns the view's identity (everything but the rows). The fields
// are immutable after construction, so no lock is needed.
func (p *ProbTable) Meta() ViewMeta {
	return ViewMeta{Name: p.Name, Source: p.Source, MetricName: p.MetricName, Omega: p.Omega}
}

func (p *ProbTable) setLogged(logged bool) {
	p.mu.Lock()
	p.logged = logged
	p.mu.Unlock()
}

// TimeGroup locates the rows of one timestamp inside the columns: positions
// [Off, Off+Len) are exactly the rows with timestamp T, in arrival order.
// Num and Den are the tuple's expected-value sums — Num the sum of
// (Lo+Hi)/2 * Prob, Den the sum of Prob — accumulated in row order with the
// operations probdb.Expected performs, so Num/Den is its result bit for bit.
type TimeGroup struct {
	T        int64
	Off, Len int
	Num, Den float64
}

// appendCols is the one place rows become resident: it extends the four
// columns and the group index by rows, and keeps each group's sums and the
// table's order flag. A row is checked against the previous row of its
// tuple, which an earlier append may have delivered. Caller holds the write
// lock (or the table is not yet shared).
func (p *ProbTable) appendCols(rows []view.Row) {
	off, groupsBefore := len(p.colProb), len(p.groups)
	p.colLambda = slices.Grow(p.colLambda, len(rows))
	p.colLo = slices.Grow(p.colLo, len(rows))
	p.colHi = slices.Grow(p.colHi, len(rows))
	p.colProb = slices.Grow(p.colProb, len(rows))
	for i := range rows {
		r := &rows[i]
		p.colLambda = append(p.colLambda, r.Lambda)
		p.colLo = append(p.colLo, r.Lo)
		p.colHi = append(p.colHi, r.Hi)
		p.colProb = append(p.colProb, r.Prob)
		ordered := !math.IsNaN(r.Lo) && !math.IsNaN(r.Hi)
		if n := len(p.groups); n > 0 && p.groups[n-1].T == r.T {
			prev := off + i - 1
			ordered = ordered && r.Lo >= p.colLo[prev] && r.Hi >= p.colHi[prev]
		} else {
			p.groups = append(p.groups, TimeGroup{T: r.T, Off: off + i})
		}
		if !ordered {
			p.unordered = true
		}
		g := &p.groups[len(p.groups)-1]
		g.Len++
		mid := (r.Lo + r.Hi) / 2
		g.Num += mid * r.Prob
		g.Den += r.Prob
	}
	metIndexGroups.Add(float64(len(p.groups) - groupsBefore))
}

// AppendRows extends a view no logged catalog holds (an offline build, a
// bench table). Rows must continue the ascending-timestamp order. A table
// in a logged catalog is refused with ErrBadSchema and left unchanged: an
// unlogged append there would be acknowledged and then lost on restart,
// so its rows enter through DB.CommitSteps.
func (p *ProbTable) AppendRows(rows []view.Row) error {
	if len(rows) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.logged {
		return fmt.Errorf("%w: view %q is in a logged catalog; append through DB.CommitSteps", ErrBadSchema, p.Name)
	}
	p.appendCols(rows)
	metRowsAppended.Add(int64(len(rows)))
	return nil
}

// NumRows returns the current row count.
func (p *ProbTable) NumRows() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.colProb)
}

// NumTimes returns the current count of distinct timestamps (tuples).
func (p *ProbTable) NumTimes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.groups)
}

// rowsOf materialises the rows of a contiguous group span: one allocation
// of exactly that many rows. Caller holds the lock (read or write).
func (p *ProbTable) rowsOf(groups []TimeGroup) []view.Row {
	out := make([]view.Row, 0, SpanRows(groups))
	for _, g := range groups {
		for i := g.Off; i < g.Off+g.Len; i++ {
			out = append(out, view.Row{T: g.T, Lambda: p.colLambda[i], Lo: p.colLo[i], Hi: p.colHi[i], Prob: p.colProb[i]})
		}
	}
	return out
}

// SnapshotRows returns all rows as a fresh slice, isolated from later
// appends.
func (p *ProbTable) SnapshotRows() []view.Row {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.rowsOf(p.groups)
}

// groupSpan returns the index positions [lo, hi) of the groups with
// timestamp in [tLo, tHi]; an inverted range (tLo > tHi) yields an empty
// span, never hi < lo — callers slice groups[lo:hi] directly. Caller holds
// the lock (read or write).
func (p *ProbTable) groupSpan(tLo, tHi int64) (lo, hi int) {
	lo = sort.Search(len(p.groups), func(i int) bool { return p.groups[i].T >= tLo })
	hi = sort.Search(len(p.groups), func(i int) bool { return p.groups[i].T > tHi })
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// RowsRange returns the rows with timestamp in [tLo, tHi] as a fresh slice.
func (p *ProbTable) RowsRange(tLo, tHi int64) []view.Row {
	p.mu.RLock()
	defer p.mu.RUnlock()
	lo, hi := p.groupSpan(tLo, tHi)
	return p.rowsOf(p.groups[lo:hi])
}

// RowsAt returns the view rows for timestamp t in arrival (lambda) order,
// nil when the view has no tuple at t.
func (p *ProbTable) RowsAt(t int64) []view.Row {
	p.mu.RLock()
	defer p.mu.RUnlock()
	lo, hi := p.groupSpan(t, t)
	if lo >= hi {
		return nil
	}
	return p.rowsOf(p.groups[lo:hi])
}

// Times returns the distinct timestamps present in the view, ascending.
func (p *ProbTable) Times() []int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.groups) == 0 {
		return nil
	}
	out := make([]int64, len(p.groups))
	for i, g := range p.groups {
		out[i] = g.T
	}
	return out
}

// RangeSize reports how many distinct timestamps (groups) and rows fall in
// [tLo, tHi] — the scan size a range query will touch — at O(log T) cost.
// Query explain output uses it to report work without re-walking the range.
func (p *ProbTable) RangeSize(tLo, tHi int64) (groups, rows int) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	lo, hi := p.groupSpan(tLo, tHi)
	return hi - lo, SpanRows(p.groups[lo:hi])
}

// GroupCols is one timestamp's rows as column spans: Lambda[i], Lo[i],
// Hi[i], Prob[i] describe the tuple's i-th Omega range. All slices are
// zero-copy views of the table's columns.
type GroupCols struct {
	T            int64
	Lambda       []int
	Lo, Hi, Prob []float64
}

// Cols is the whole table's value columns as handed to RangeCols, addressed
// through TimeGroup spans (Lo[g.Off : g.Off+g.Len] are the lows of group g,
// and so on). Ordered reports that within every group Lo and Hi are
// non-decreasing in row order and NaN-free (see ProbTable).
type Cols struct {
	Lo, Hi, Prob []float64
	Ordered      bool
}

// ForEachGroupCols calls fn once per distinct timestamp in [tLo, tHi],
// ascending, with the timestamp's rows as column spans. The whole range is
// visited in one indexed pass under a single read lock: no per-timestamp
// search, no copies.
//
// The spans are valid only for the duration of the call — fn must not
// retain or mutate them, and must not call back into the table (the lock is
// held). A non-nil error from fn stops the iteration and is returned.
func (p *ProbTable) ForEachGroupCols(tLo, tHi int64, fn func(g GroupCols) error) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	lo, hi := p.groupSpan(tLo, tHi)
	for _, g := range p.groups[lo:hi] {
		end := g.Off + g.Len
		gc := GroupCols{
			T:      g.T,
			Lambda: p.colLambda[g.Off:end:end],
			Lo:     p.colLo[g.Off:end:end],
			Hi:     p.colHi[g.Off:end:end],
			Prob:   p.colProb[g.Off:end:end],
		}
		if err := fn(gc); err != nil {
			return err
		}
	}
	return nil
}

// RangeCols is the bulk form of ForEachGroupCols: fn is called exactly once,
// under the read lock, with the group-index entries for [tLo, tHi] (possibly
// empty) and the whole-table columns. Batch kernels use it to run their
// entire double loop — groups outside, column scan inside — with zero
// per-group dispatch. The slices are valid only for the duration of the
// call; fn must not retain or mutate them, nor call back into the table.
func (p *ProbTable) RangeCols(tLo, tHi int64, fn func(groups []TimeGroup, c Cols) error) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	lo, hi := p.groupSpan(tLo, tHi)
	return fn(p.groups[lo:hi], Cols{Lo: p.colLo, Hi: p.colHi, Prob: p.colProb, Ordered: !p.unordered})
}

// DB is the catalog.
type DB struct {
	mu   sync.RWMutex
	raw  map[string]*RawTable
	prob map[string]*ProbTable
	log  CommitLog // when set, every mutation is logged before it is applied
}

// SetCommitLog attaches a commit log to the catalog: every later mutation
// is logged before it is applied (write-ahead), in the exact order a
// replay must re-apply it. Attaching also marks every resident view table
// logged, so AppendRows on its handle is refused. Pass nil to detach.
func (db *DB) SetCommitLog(l CommitLog) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.log = l
	for _, p := range db.prob {
		p.setLogged(l != nil)
	}
}

// NewDB returns an empty catalog.
func NewDB() *DB {
	return &DB{raw: make(map[string]*RawTable), prob: make(map[string]*ProbTable)}
}

func validName(name string) error {
	if name == "" {
		return ErrBadName
	}
	for _, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("%w: %q", ErrBadName, name)
		}
	}
	return nil
}

// CreateRawTable registers a raw-value table. Column names default to "t"
// and "r" when empty.
func (db *DB) CreateRawTable(name, timeCol, valueCol string, s *timeseries.Series) (*RawTable, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("%w: nil series", ErrBadSchema)
	}
	if timeCol == "" {
		timeCol = "t"
	}
	if valueCol == "" {
		valueCol = "r"
	}
	if err := validName(timeCol); err != nil {
		return nil, err
	}
	if err := validName(valueCol); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.raw[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if _, dup := db.prob[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if db.log != nil {
		pts, err := seriesPoints(s)
		if err != nil {
			return nil, err
		}
		if err := db.log.CreateRaw(name, timeCol, valueCol, pts); err != nil {
			return nil, err
		}
	}
	t := &RawTable{Name: name, TimeCol: timeCol, ValueCol: valueCol, Series: s}
	db.raw[name] = t
	return t, nil
}

// seriesPoints copies every point of a series.
func seriesPoints(s *timeseries.Series) ([]timeseries.Point, error) {
	pts := make([]timeseries.Point, 0, s.Len())
	for i := 0; i < s.Len(); i++ {
		p, err := s.At(i)
		if err != nil {
			return nil, err
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// validateAppends rejects what Series.Append would reject for pts, in
// order — a timestamp not strictly after the one before it, the table's
// last point included — without mutating anything: the pre-log check that
// keeps the WAL free of records the in-memory table refuses.
func (t *RawTable) validateAppends(pts []timeseries.Point) error {
	for i, p := range pts {
		var prev int64
		switch n := t.Series.Len(); {
		case i > 0:
			prev = pts[i-1].T
		case n > 0:
			last, err := t.Series.At(n - 1)
			if err != nil {
				return err
			}
			prev = last.T
		default:
			continue // the first point of an empty table
		}
		if p.T <= prev {
			return fmt.Errorf("%w: t=%d not after t=%d", timeseries.ErrUnsorted, p.T, prev)
		}
	}
	return nil
}

// RawTable fetches a raw table by name.
func (db *DB) RawTable(name string) (*RawTable, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.raw[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return t, nil
}

// CommitStep commits one ingest step: CommitSteps with a single point.
func (db *DB) CommitStep(source string, pt timeseries.Point, table *ProbTable, rows []view.Row) error {
	return db.CommitSteps(source, []timeseries.Point{pt}, table, rows)
}

// CommitSteps commits one ingest request atomically: the raw points, in
// order, and the view rows they produced, in point order (a point may
// produce none), go into a single logged record (one WAL append, so one
// sync) and are applied under the catalog lock before the request is
// acknowledged. On recovery the request replays as a unit: an acked
// request never resurfaces with some of its points, or with a point but
// not its rows. A timestamp that does not strictly follow the one before
// it (the table's last point first) rejects the whole request with
// timeseries.ErrUnsorted, logging and applying nothing.
//
// The whole request runs under the catalog write lock, which is also what
// a checkpoint capture takes: a capture therefore sees all of the request
// or none of it, so the "flushed to segments" / "still in the WAL"
// boundary is exact.
func (db *DB) CommitSteps(source string, pts []timeseries.Point, table *ProbTable, rows []view.Row) error {
	if table == nil {
		return fmt.Errorf("%w: nil view", ErrBadSchema)
	}
	if len(pts) == 0 {
		return fmt.Errorf("%w: no points", ErrBadSchema)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.raw[source]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, source)
	}
	if err := t.validateAppends(pts); err != nil {
		return err
	}
	table.mu.Lock()
	defer table.mu.Unlock()
	if db.log != nil {
		if err := db.log.Steps(source, pts, table.Name, rows); err != nil {
			return err
		}
	}
	for _, p := range pts {
		if err := t.Series.Append(p); err != nil {
			return err
		}
	}
	metRawAppends.Add(int64(len(pts)))
	table.appendCols(rows)
	metRowsAppended.Add(int64(len(rows)))
	return nil
}

// LastRawTime returns the timestamp of a raw table's most recent point —
// the watermark an online stream seeds its out-of-order check from, so a
// stale ingest is rejected before any state changes.
func (db *DB) LastRawTime(name string) (int64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.raw[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	n := t.Series.Len()
	if n == 0 {
		return 0, fmt.Errorf("%w: table %q", timeseries.ErrEmpty, name)
	}
	p, err := t.Series.At(n - 1)
	if err != nil {
		return 0, err
	}
	return p.T, nil
}

// SnapshotSeries returns a full copy of a raw table's series, taken under
// the catalog lock so it is isolated from concurrent appends. Offline view
// generation reads from such snapshots, which is what lets ingest proceed
// while an expensive Omega-view build runs.
func (db *DB) SnapshotSeries(name string) (*timeseries.Series, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.raw[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return t.Series.Clone(), nil
}

// ScanRaw returns a copy of the raw points with timestamp in [tLo, tHi],
// isolated from concurrent appends.
func (db *DB) ScanRaw(name string, tLo, tHi int64) (*timeseries.Series, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.raw[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return t.Series.TimeRange(tLo, tHi), nil
}

// RawLen returns the current length of a raw table.
func (db *DB) RawLen(name string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.raw[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return t.Series.Len(), nil
}

// RawTail returns the last h values of a raw table (the stream warm-up
// window), isolated from concurrent appends.
func (db *DB) RawTail(name string, h int) ([]float64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.raw[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	n := t.Series.Len()
	if h < 0 || h > n {
		return nil, fmt.Errorf("%w: tail of %d values; table %q holds %d", ErrBadSchema, h, name, n)
	}
	out := make([]float64, h)
	for i := 0; i < h; i++ {
		p, err := t.Series.At(n - h + i)
		if err != nil {
			return nil, err
		}
		out[i] = p.V
	}
	return out, nil
}

// StoreView registers (or replaces) a probabilistic view table.
func (db *DB) StoreView(p *ProbTable) error {
	if p == nil {
		return fmt.Errorf("%w: nil view", ErrBadSchema)
	}
	if err := validName(p.Name); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.raw[p.Name]; dup {
		return fmt.Errorf("%w: %q is a raw table", ErrExists, p.Name)
	}
	if db.log != nil {
		if err := db.log.StoreView(p.Meta(), p.SnapshotRows()); err != nil {
			return err
		}
	}
	p.setLogged(db.log != nil)
	db.prob[p.Name] = p
	return nil
}

// View fetches a probabilistic view by name.
func (db *DB) View(name string) (*ProbTable, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, ok := db.prob[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return p, nil
}

// Drop removes a table (raw or view) by name.
func (db *DB) Drop(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.raw[name]; ok {
		if db.log != nil {
			if err := db.log.Drop(name); err != nil {
				return err
			}
		}
		delete(db.raw, name)
		return nil
	}
	if p, ok := db.prob[name]; ok {
		if db.log != nil {
			if err := db.log.Drop(name); err != nil {
				return err
			}
		}
		p.setLogged(false) // a dropped table is held by no catalog
		delete(db.prob, name)
		return nil
	}
	return fmt.Errorf("%w: %q", ErrNotFound, name)
}

// TableInfo describes one catalog entry.
type TableInfo struct {
	Name string
	Kind string // "raw" or "view"
	Rows int
}

// List returns catalog entries sorted by name.
func (db *DB) List() []TableInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]TableInfo, 0, len(db.raw)+len(db.prob))
	for name, t := range db.raw {
		out = append(out, TableInfo{Name: name, Kind: "raw", Rows: t.Series.Len()})
	}
	for name, p := range db.prob {
		out = append(out, TableInfo{Name: name, Kind: "view", Rows: p.NumRows()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ViewResident sums over the catalog's views the rows resident in memory
// and the bytes they occupy — the capacity of
// the four columns plus the group index — what the resident-rows and
// resident-bytes gauges export.
func (db *DB) ViewResident() (rows, bytes int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, p := range db.prob {
		p.mu.RLock()
		rows += len(p.colProb)
		bytes += int(unsafe.Sizeof(int(0)))*cap(p.colLambda) +
			8*(cap(p.colLo)+cap(p.colHi)+cap(p.colProb)) +
			int(unsafe.Sizeof(TimeGroup{}))*cap(p.groups)
		p.mu.RUnlock()
	}
	return rows, bytes
}

// RawState is a checkpoint capture of one raw table: its schema and the
// points past the caller's durable watermark.
type RawState struct {
	Name     string
	TimeCol  string
	ValueCol string
	From     int // points already durable in segments
	Points   []timeseries.Point
	Total    int
}

// ViewState is a checkpoint capture of one view table: its identity and
// the rows past the caller's durable watermark.
type ViewState struct {
	Meta  ViewMeta
	From  int // rows already durable in segments
	Rows  []view.Row
	Total int
}

// CaptureCheckpoint is the atomic snapshot step of a checkpoint: under
// the catalog write lock — with every commit quiesced — it first calls
// rotate (the WAL rotation) and then captures each table's suffix past
// the caller's durable watermarks. The boundary is exact: every mutation
// logged before the rotation point is covered by the captured state, and
// every mutation logged after it is not. Captures list every table, even
// ones with nothing new to flush, so the caller's manifest records the
// full catalog. Results are sorted by name.
func (db *DB) CaptureCheckpoint(rotate func() error, rawFrom, viewFrom func(name string) int) ([]RawState, []ViewState, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if rotate != nil {
		if err := rotate(); err != nil {
			return nil, nil, err
		}
	}
	raws := make([]RawState, 0, len(db.raw))
	for name, t := range db.raw {
		total := t.Series.Len()
		from := rawFrom(name)
		if from < 0 {
			from = 0
		}
		if from > total {
			from = total
		}
		pts := make([]timeseries.Point, 0, total-from)
		for i := from; i < total; i++ {
			p, err := t.Series.At(i)
			if err != nil {
				return nil, nil, err
			}
			pts = append(pts, p)
		}
		raws = append(raws, RawState{
			Name: name, TimeCol: t.TimeCol, ValueCol: t.ValueCol,
			From: from, Points: pts, Total: total,
		})
	}
	views := make([]ViewState, 0, len(db.prob))
	for name, p := range db.prob {
		views = append(views, p.captureState(viewFrom(name)))
	}
	sort.Slice(raws, func(i, j int) bool { return raws[i].Name < raws[j].Name })
	sort.Slice(views, func(i, j int) bool { return views[i].Meta.Name < views[j].Meta.Name })
	return raws, views, nil
}

// captureState materialises the table's suffix past from for a checkpoint.
func (p *ProbTable) captureState(from int) ViewState {
	p.mu.RLock()
	defer p.mu.RUnlock()
	total := len(p.colProb)
	if from < 0 {
		from = 0
	}
	if from > total {
		from = total
	}
	// Materialise from the group holding row from, then drop the part of
	// that group already durable (at most one group's rows).
	gi := sort.Search(len(p.groups), func(i int) bool { return p.groups[i].Off+p.groups[i].Len > from })
	rows := p.rowsOf(p.groups[gi:])
	return ViewState{Meta: p.Meta(), From: from, Rows: rows[len(rows)-(total-from):], Total: total}
}

// Package lockcheck seeds every violation class the lockcheck analyzer
// reports, next to the compliant shapes it must stay silent on.
package lockcheck

import "sync"

// Table mirrors storage.ProbTable's layout: name precedes the mutex and is
// construction-immutable; rows and idx follow it and are guarded.
type Table struct {
	name string

	mu   sync.RWMutex
	rows []int
	idx  map[int]int
}

func (t *Table) Len() int {
	return len(t.rows) // want `Len reads t\.rows without holding t\.mu`
}

func (t *Table) Grow(v int) {
	t.rows = nil // want `Grow writes t\.rows without holding t\.mu`
	_ = v
}

func (t *Table) BadGrow(v int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.rows = append(t.rows, v) // want `BadGrow writes t\.rows under a read lock`
}

func (t *Table) SetName(name string) {
	t.name = name // want `SetName writes t\.name, declared above t\.mu`
}

func (t *Table) First() (int, bool) {
	t.mu.RLock()
	if len(t.rows) == 0 {
		return 0, false // want `return leaks t\.mu\.Lock`
	}
	v := t.rows[0]
	t.mu.RUnlock()
	return v, true
}

func snapshot(t Table) int { // want `snapshot parameter passes a lock`
	return len(t.idx)
}

func (t *Table) reseat() {
	cp := *t // want `dereference copies a lock`
	_ = cp
}

func iterate(tables []Table) int {
	n := 0
	for _, tb := range tables { // want `range copies a lock`
		n += len(tb.idx)
	}
	return n
}

// --- compliant shapes: no diagnostics below this line -------------------

func (t *Table) Append(v int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = append(t.rows, v)
	t.idx[v] = len(t.rows) - 1
}

func (t *Table) LenLocked() int {
	return len(t.rows)
}

// Name never changes after construction, so the unlocked read is fine.
func (t *Table) Name() string {
	return t.name
}

// load fills a freshly decoded table. The table is not yet shared, so no
// lock is needed.
func (t *Table) load(rows []int) {
	t.rows = rows
}

package wal_test

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// TestExplicitSyncsObserved pins that tspdb_wal_fsync_seconds counts every
// sync of the live file: one Sync adds exactly one observation, and so does
// the final sync on Close. With Fsync off, Append adds none.
func TestExplicitSyncsObserved(t *testing.T) {
	log, err := wal.OpenLog(faultfs.New(), "wal", 1, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Get-or-create: the family wal registered at init, bounds and all.
	fsyncs := obs.Default.Histogram("tspdb_wal_fsync_seconds", "", nil)
	count := func() int64 { return fsyncs.Snapshot().Count }
	before := count()
	if err := log.Append([]byte("record")); err != nil {
		t.Fatal(err)
	}
	if got := count() - before; got != 0 {
		t.Fatalf("Append without Fsync added %d observations, want 0", got)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := count() - before; got != 1 {
		t.Fatalf("one Sync added %d observations, want 1", got)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if got := count() - before; got != 2 {
		t.Fatalf("Sync then Close added %d observations, want 2", got)
	}
	if err := log.Close(); err != nil { // a second Close touches nothing
		t.Fatal(err)
	}
	if got := count() - before; got != 2 {
		t.Fatalf("a repeated Close added an observation: %d, want 2", got)
	}
}

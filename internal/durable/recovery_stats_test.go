package durable

import (
	"testing"

	"repro/internal/wal/faultfs"
)

// TestRecoveryStats checks the recovery accounting surfaced to the daemon's
// startup log: a fresh directory replays nothing, a reopen after a logged
// workload reports the replayed records, and a reopen after a checkpoint
// reads segments instead of WAL records.
func TestRecoveryStats(t *testing.T) {
	fs := faultfs.New()

	st := openStore(t, fs, Options{Fsync: true})
	if rs := st.RecoveryStats(); rs.RecordsReplayed != 0 || rs.SegmentsOpened != 0 || rs.TornTail {
		t.Errorf("fresh open replayed something: %+v", rs)
	}
	seedWorkload(t, st, 8)

	// A crash (no Close) leaves the whole workload in the WAL; the reopen
	// must account its replay. Close would checkpoint and trim first.
	st2 := openStore(t, fs.CrashImage(), Options{Fsync: true})
	rs := st2.RecoveryStats()
	if rs.RecordsReplayed == 0 {
		t.Error("reopen after crash replayed no WAL records")
	}
	if rs.WALFilesReplayed == 0 {
		t.Error("reopen after crash replayed no WAL files")
	}
	if rs.TornTail {
		t.Error("fsync'd crash image reported a torn tail")
	}
	if rs.Duration <= 0 {
		t.Errorf("replay duration = %v, want > 0", rs.Duration)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// A clean close checkpoints: the next open reads segments, not records.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openStore(t, fs, Options{Fsync: true})
	defer st3.Close()
	rs3 := st3.RecoveryStats()
	// One segment each for raw table sensor and view pv; view av holds no
	// rows, so it has none.
	if rs3.SegmentsOpened != 2 {
		t.Errorf("reopen after checkpointing close opened %d segments, want 2", rs3.SegmentsOpened)
	}
	if rs3.RecordsReplayed >= rs.RecordsReplayed {
		t.Errorf("checkpoint did not shrink replay: %d records, previously %d",
			rs3.RecordsReplayed, rs.RecordsReplayed)
	}
	if rs3.TornTail {
		t.Error("clean close reported a torn tail")
	}
}

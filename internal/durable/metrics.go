package durable

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Recovery and checkpoint metrics. Checkpoint age is derived at scrape
// time from the last successful checkpoint's wall clock, shared across
// stores in the process (in the daemon there is exactly one).
var (
	metReplaySeconds = obs.Default.Histogram("tspdb_replay_seconds",
		"Recovery duration at Open (manifest load + WAL replay + GC).",
		[]float64{1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 500e-3, 1, 5, 10, 30, 60})
	metReplayRecords = obs.Default.Counter("tspdb_replay_records_total",
		"WAL records re-applied during recovery.")
	metRecoveries = obs.Default.Counter("tspdb_recoveries_total",
		"Durable store recoveries (Open calls).")
	metCkptSeconds = obs.Default.Histogram("tspdb_checkpoint_seconds",
		"Checkpoint duration (capture + segment writes + manifest commit + trim).",
		[]float64{1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 500e-3, 1, 5, 10, 30, 60})
	metCkpts = obs.Default.Counter("tspdb_checkpoints_total",
		"Checkpoints committed.")
	metCkptErrors = obs.Default.Counter("tspdb_checkpoint_errors_total",
		"Checkpoints that failed before committing a manifest.")
	metCkptWalSeq = obs.Default.Gauge("tspdb_checkpoint_wal_seq",
		"WAL sequence boundary of the last committed checkpoint (its generation).")
	metWalTrimmed = obs.Default.Counter("tspdb_wal_trimmed_files_total",
		"WAL files deleted after a checkpoint covered them.")
	metSegsDeleted = obs.Default.Counter("tspdb_segments_deleted_total",
		"Segment files removed by GC (unreferenced by the manifest).")
	metSegsWritten = obs.Default.Counter("tspdb_segments_written_total",
		"Segment files sealed.")
	metSegBytesWritten = obs.Default.Counter("tspdb_segment_bytes_written_total",
		"Bytes written into sealed segment files.")
	metSegsOpened = obs.Default.Counter("tspdb_segments_opened_total",
		"Segment files read back whole.")
	metSegBytesRead = obs.Default.Counter("tspdb_segment_bytes_read_total",
		"Bytes read from segment files.")
	metSegSeal = obs.Default.Histogram("tspdb_segment_seal_seconds",
		"Segment seal latency (write + sync + rename).", obs.DurationBuckets)
)

// lastCkptUnixNano is the wall clock of the last committed checkpoint,
// 0 before any. The age gauge reads it at scrape time.
var lastCkptUnixNano atomic.Int64

func init() {
	obs.Default.GaugeFunc("tspdb_checkpoint_age_seconds",
		"Seconds since the last committed checkpoint (-1 before the first).",
		func() float64 {
			ns := lastCkptUnixNano.Load()
			if ns == 0 {
				return -1
			}
			return time.Since(time.Unix(0, ns)).Seconds()
		})
}

// RecoveryStats describes what Open did to reach the acknowledged state.
type RecoveryStats struct {
	// SegmentsOpened counts segment files read while loading the manifest:
	// every segment of every raw table and every view.
	SegmentsOpened int
	// WALFilesReplayed counts log files whose records were re-applied.
	WALFilesReplayed int
	// RecordsReplayed counts WAL records re-applied to the catalog.
	RecordsReplayed int
	// TornTail reports whether replay truncated a torn or corrupt tail.
	TornTail bool
	// Duration is the wall time of the whole recovery.
	Duration time.Duration
}

// RecoveryStats returns what this store's Open replayed. The stats are
// written during Open only and immutable afterwards; no lock is needed.
func (s *Store) RecoveryStats() RecoveryStats { return s.recovery }

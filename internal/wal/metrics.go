package wal

import "repro/internal/obs"

// Package metrics, registered on the process-wide registry. Appends are
// the engine's durability hot path, so everything here is a handful of
// atomic adds plus at most three time.Now calls per Append.
var (
	metAppend = obs.Default.Histogram("tspdb_wal_append_seconds",
		"WAL Append latency (frame + write + optional fsync).", obs.DurationBuckets)
	metFsync = obs.Default.Histogram("tspdb_wal_fsync_seconds",
		"WAL file sync latency (per-append fsync, explicit Sync, rotation seals and the final sync on Close).", obs.DurationBuckets)
	metRecords = obs.Default.Counter("tspdb_wal_records_total",
		"Records appended to the WAL.")
	metBytes = obs.Default.Counter("tspdb_wal_bytes_total",
		"Framed bytes written to the WAL.")
	metRotations = obs.Default.Counter("tspdb_wal_rotations_total",
		"WAL live-file rotations.")
	metTornTails = obs.Default.Counter("tspdb_wal_torn_tails_total",
		"Torn or corrupt WAL tails truncated during replay.")
)

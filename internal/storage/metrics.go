package storage

import "repro/internal/obs"

var (
	metRowsAppended = obs.Default.Counter("tspdb_view_rows_appended_total",
		"View rows appended across all ProbTables.")
	metRawAppends = obs.Default.Counter("tspdb_raw_points_appended_total",
		"Raw points appended across all raw tables.")
	// metIndexGroups tracks distinct indexed timestamps across tables by
	// delta: appendCols adds what it indexed. Tables dropped from a catalog
	// keep their contribution, so the gauge overcounts after drops.
	metIndexGroups = obs.Default.Gauge("tspdb_index_groups",
		"Distinct indexed timestamps (group-index entries) across ProbTables.")
)

package storage

import "repro/internal/obs"

var (
	metRowsAppended = obs.Default.Counter("tspdb_view_rows_appended_total",
		"View rows appended across all ProbTables.")
	metRawAppends = obs.Default.Counter("tspdb_raw_points_appended_total",
		"Raw points appended across all raw tables.")
	metIndexLazyLoads = obs.Default.Counter("tspdb_index_lazy_loads_total",
		"Lazy segment-backed row materialisations.")
	// metIndexGroups tracks distinct indexed timestamps across tables by
	// delta: appendCols adds what it indexed, SetLoader subtracts what it
	// discards. Tables dropped from a catalog keep their contribution until
	// re-indexed, so the gauge is approximate across drops.
	metIndexGroups = obs.Default.Gauge("tspdb_index_groups",
		"Distinct indexed timestamps (group-index entries) across ProbTables.")
)

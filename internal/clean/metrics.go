package clean

import "repro/internal/obs"

// Stage timings for the C-GARCH ingest path. The model-stage family is
// shared by name with the plain online path (internal/core); the clean
// stage — bounds check, run tracking, SVR trend scrub — is this package's
// own contribution to a Step's latency.
var (
	metModelStage = obs.Default.Histogram("tspdb_ingest_model_seconds",
		"Density-metric inference time per online ingest step.", obs.DurationBuckets)
	metCleanStage = obs.Default.Histogram("tspdb_ingest_clean_seconds",
		"C-GARCH cleaning time per online ingest step (after inference).", obs.DurationBuckets)
)

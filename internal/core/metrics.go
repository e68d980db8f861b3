package core

import "repro/internal/obs"

// Ingest pipeline metrics. The engine times the model stage of a plain
// stream and the view stage per point, the commit stage and the whole
// latency per batch (one StepBatch call; Step is a batch of one), and
// counts outcomes; internal/clean times its own model and clean stages
// under the same families — together one scrape decomposes ingest into
// clean → model → view → WAL commit.
var (
	metSteps = obs.Default.Counter("tspdb_ingest_steps_total",
		"Online ingest steps (points) committed.")
	metStepErrors = obs.Default.Counter("tspdb_ingest_errors_total",
		"Online ingest batches that failed (excluding out-of-order rejections).")
	metOutOfOrder = obs.Default.Counter("tspdb_ingest_out_of_order_total",
		"Online ingest batches rejected for a stale timestamp (HTTP 409).")
	metStepSeconds = obs.Default.Histogram("tspdb_ingest_step_seconds",
		"Whole online ingest batch latency (prepare through commit).", obs.DurationBuckets)
	metCommitStage = obs.Default.Histogram("tspdb_ingest_commit_seconds",
		"Catalog + WAL commit time per online ingest batch.", obs.DurationBuckets)
	metModelStage = obs.Default.Histogram("tspdb_ingest_model_seconds",
		"Density-metric inference time per online ingest step.", obs.DurationBuckets)
	metViewStage = obs.Default.Histogram("tspdb_ingest_view_seconds",
		"Omega-view row generation time per online ingest step.", obs.DurationBuckets)
	// metCachesDiscarded counts short-lived build caches evicted with their
	// builder after an Exec'd CREATE VIEW ... CACHE — the ladder itself
	// never evicts entries, so this is the engine's cache-eviction story.
	metCachesDiscarded = obs.Default.Counter("tspdb_sigma_caches_discarded_total",
		"Exec-attached sigma-caches discarded after their view build.")
)

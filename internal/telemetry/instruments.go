package telemetry

// Canonical instrument names shared by the engine, the HTTP layer and
// the SLO objectives. Registration is idempotent, so any subsystem can
// call these helpers and record into the same series.
const (
	// OpDurationName times whole engine operations, labeled op=search|
	// create|book|cancel|track|complete.
	OpDurationName = "xar_op_duration_seconds"
	// SearchStageName decomposes one search into the paper's stages
	// (§VII), labeled stage=side_lookup|candidate_scan|final_check|
	// detour_check. Fig 4a's latency story becomes observable per stage.
	SearchStageName = "xar_search_stage_duration_seconds"
)

// OpDuration returns the whole-operation latency histogram for op.
func OpDuration(r *Registry, op string) *Histogram {
	return r.Histogram(OpDurationName,
		"Engine operation latency by operation.",
		DurationBuckets(), L("op", op))
}

// SearchStage returns the per-stage search latency histogram for stage.
func SearchStage(r *Registry, stage string) *Histogram {
	return r.Histogram(SearchStageName,
		"Search latency decomposed by internal stage (one observation per search per stage reached).",
		DurationBuckets(), L("stage", stage))
}

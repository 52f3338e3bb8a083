// Package servecache holds the state `fpm serve` shares across jobs: a
// ref-counted dataset cache so concurrent and repeated jobs against the
// same input file share one parsed database instead of re-running the
// FIMI parse per job, and a result cache whose entries answer not just
// exact repeats but any query at a higher support threshold
// (support-threshold subsumption: a minsup=100 listing filtered to
// support >= 150 is exactly the minsup=150 listing, because mining is
// complete). Both caches key on durable.Identity, account their resident
// bytes, and evict cold entries LRU-first when their byte cap bites.
//
// The result cache can additionally be persisted across restarts: a
// Persister snapshots the cache into an FPRS sidecar and Restore
// pre-warms a fresh cache from it, validating each entry against the
// live input file's full content hash so a stale listing can never be
// resurrected from disk.
//
// The package deliberately sits below the serving layer: it imports only
// the dataset/fimi/mine core plus the durable-file and failpoint
// packages, so the telemetry job store, the serve wiring and the tests
// can all compose it without import cycles.
package servecache

// Caches bundles the two serving-layer caches; either may be nil
// (disabled).
type Caches struct {
	Datasets *DatasetCache
	Results  *ResultCache
}

// Stats is the combined census, rendered on /metrics as the fpm_cache_*
// family.
type Stats struct {
	Dataset DatasetStats `json:"dataset"`
	Result  ResultStats  `json:"result"`
}

// Stats returns the combined snapshot.
func (c *Caches) Stats() Stats {
	var s Stats
	if c == nil {
		return s
	}
	if c.Datasets != nil {
		s.Dataset = c.Datasets.Stats()
	}
	if c.Results != nil {
		s.Result = c.Results.Stats()
	}
	return s
}

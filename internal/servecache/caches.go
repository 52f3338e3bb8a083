// Package servecache holds the shared state that makes `fpm serve`
// multi-tenant: a ref-counted dataset cache so concurrent and repeated
// jobs against the same input file share one parsed database instead of
// re-running the FIMI parse per job, and a result cache whose entries
// answer not just exact repeats but any query at a higher support
// threshold (support-threshold subsumption: a minsup=100 listing filtered
// to support >= 150 is exactly the minsup=150 listing, because mining is
// complete). Both caches key on durable.Identity, account their resident
// bytes so the serving layer's admission control can weigh cached state
// against running jobs under one global memory budget, and evict cold
// entries LRU-first when that budget (or their own cap) bites.
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
// (disabled). It is the unit the serve wiring hands to the admission
// controller: Resident is the cached state weighed against the global
// memory budget, and Shed is the lever admission pulls when a queued job
// does not fit — cold cached bytes are given back before work is made to
// wait.
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

// Resident returns the total cached bytes across both caches.
func (c *Caches) Resident() int64 {
	if c == nil {
		return 0
	}
	var n int64
	if c.Datasets != nil {
		n += c.Datasets.Resident()
	}
	if c.Results != nil {
		n += c.Results.Resident()
	}
	return n
}

// Shed frees up to need bytes of cold cached state. Datasets are shed
// before result listings: a cached dataset only saves a parse, while a
// cached listing saves a whole mine, so listings are the last thing
// given back.
func (c *Caches) Shed(need int64) int64 {
	if c == nil {
		return 0
	}
	var freed int64
	if c.Datasets != nil {
		freed += c.Datasets.Shed(need)
	}
	if freed < need && c.Results != nil {
		freed += c.Results.Shed(need - freed)
	}
	return freed
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

package mine

import "fpm/internal/dataset"

// TaskFunc is one stealable unit of mining work: a self-contained subtree
// closure that mines into the collector it is handed. The scheduler runs a
// task exactly once, on an arbitrary worker; c is that worker's private
// collector and sp is that worker's spawner, so the task may in turn offer
// its own subtrees. A task must not share mutable state with the recursion
// that spawned it.
type TaskFunc func(c Collector, sp Spawner) error

// Spawner is the scheduler-side hook a task-parallel driver hands to a
// Splitter kernel. Implementations must make Offer cheap when it declines:
// the kernel calls it once per candidate subtree on its hot recursion path.
type Spawner interface {
	// WouldSteal reports whether a subtree of the given estimated weight
	// would currently be accepted (the pool is starved and weight clears
	// the cutoff). It is the zero-allocation pre-check kernels gate task
	// construction on; a true result is advisory — the following Offer
	// may still decline.
	WouldSteal(weight int) bool
	// Offer proposes a subtree, whose remaining work is estimated at
	// weight (item occurrences in the subtree's projected database), as a
	// stealable task. If Offer returns true the scheduler has taken
	// ownership and will run task exactly once; the kernel must skip the
	// subtree locally. If it returns false the kernel recurses
	// sequentially. After cancellation Offer returns true without running
	// the task, so kernels unwind quickly without a separate check per
	// node.
	Offer(weight int, task TaskFunc) bool
	// Cancelled reports whether mining has been aborted (another task
	// returned an error). Kernels should poll it at recursion entry and
	// return promptly when it is set; results emitted after cancellation
	// are discarded by the scheduler.
	Cancelled() bool
}

// Splitter is the form of a kernel the task-parallel scheduler runs: a
// depth-first kernel hands subtrees of its recursion to the scheduler, and
// a kernel with nothing to split never offers. MineSplit behaves exactly like
// Mine — same result set, same per-call validation — except that at each
// recursion node the kernel may offer the node's subtree to sp instead of
// recursing; sp == nil must degrade to plain sequential mining. Collectors
// passed to MineSplit (and to spawned tasks) are single-goroutine from the
// kernel's perspective: the scheduler gives every worker its own.
type Splitter interface {
	Miner
	MineSplit(db *dataset.DB, minSupport int, c Collector, sp Spawner) error
}

// SubtreeWeight sums the lengths of a projected database's transactions —
// the work estimate spawn cutoffs compare against, in item occurrences, the
// unit every kernel's offers and dataset.DB.Weight report.
func SubtreeWeight(tx [][]dataset.Item) int {
	w := 0
	for _, t := range tx {
		w += len(t)
	}
	return w
}

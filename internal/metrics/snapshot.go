package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// SnapshotSchemaVersion is the version stamped into every freshly recorded
// Snapshot's JSON (schema_version). History:
//
//	1 — the PR 2/PR 3 schema, emitted without a version field; decoding a
//	    versionless snapshot yields version 1.
//	2 — adds schema_version itself and partition.input_bytes.
//
// Bump it whenever a field is renamed, removed or changes meaning; adding
// optional fields keeps the version only when old decoders stay correct.
const SnapshotSchemaVersion = 2

// Snapshot is the unified observability schema: one frozen view of a
// mining run's counters, shared between native runs (Recorder.Snapshot),
// parallel runs (Parallel section) and simulated runs (Sim section, adapted
// from internal/simkern reports). The JSON encoding is the machine-readable
// form `fpm -stats json` emits; it round-trips through encoding/json.
type Snapshot struct {
	// SchemaVersion identifies the wire schema of this snapshot; see
	// SnapshotSchemaVersion. Snapshots recorded before the field existed
	// decode as version 1 (see UnmarshalJSON).
	SchemaVersion int `json:"schema_version"`
	// Kernel is the miner's Name() for native runs, or the instrumented
	// kernel's name for simulated runs.
	Kernel string `json:"kernel"`
	// Workers is the parallel pool size; 0 for sequential runs.
	Workers int `json:"workers,omitempty"`
	// WallNanos is the run's wall-clock duration (0 for simulated runs,
	// which account in cycles instead — see Sim).
	WallNanos int64 `json:"wall_ns,omitempty"`

	// Nodes counts expanded search-tree nodes (conditional databases /
	// equivalence-class members / header tables entered).
	Nodes uint64 `json:"nodes_expanded"`
	// Supports counts support countings: the individual support values a
	// kernel computed.
	Supports uint64 `json:"support_countings"`
	// Emitted counts frequent itemsets reported to the collector.
	Emitted uint64 `json:"itemsets_emitted"`
	// Prunes counts candidate extensions rejected for support < minsup.
	Prunes uint64 `json:"candidate_prunes"`

	// Parallel holds scheduler counters; nil for sequential runs.
	Parallel *ParallelStats `json:"parallel,omitempty"`
	// Partition holds out-of-core two-pass counters; nil for in-memory
	// runs.
	Partition *PartitionStats `json:"partition,omitempty"`
	// Sim holds simulated cache/CPI statistics; nil for native runs.
	Sim *SimStats `json:"sim,omitempty"`
}

// UnmarshalJSON decodes a snapshot, defaulting the schema version to 1 for
// snapshots recorded before the field existed (PR 2/PR 3 emitters wrote no
// schema_version), so old captures keep round-tripping.
func (s *Snapshot) UnmarshalJSON(b []byte) error {
	type alias Snapshot // drops the method set: plain decode, no recursion
	a := (*alias)(s)
	if err := json.Unmarshal(b, a); err != nil {
		return err
	}
	if s.SchemaVersion == 0 {
		s.SchemaVersion = 1
	}
	return nil
}

// PartitionStats are the out-of-core miner's two-pass counters (see
// internal/partition): pass 1 streams the file in bounded chunks and mines
// each for locally-frequent candidate itemsets; pass 2 re-streams it to
// count the candidates' exact global supports.
type PartitionStats struct {
	// Chunks is the number of bounded-memory chunks mined in pass 1.
	Chunks uint64 `json:"chunks_mined"`
	// ChunksSkipped counts pass-1 chunks a resumed checkpoint had already
	// mined, so this run restored their candidates instead of re-mining.
	ChunksSkipped uint64 `json:"chunks_skipped,omitempty"`
	// CheckpointsWritten / CheckpointsFailed count checkpoint sidecar
	// persists; failures are non-fatal (the previous sidecar stays valid).
	CheckpointsWritten uint64 `json:"checkpoints_written,omitempty"`
	CheckpointsFailed  uint64 `json:"checkpoints_failed,omitempty"`
	// CandidatesGenerated counts distinct locally-frequent itemsets
	// entering the candidate union across all chunks.
	CandidatesGenerated uint64 `json:"candidates_generated"`
	// CandidatesSurviving counts candidates whose exact global support
	// cleared minSupport — the final result size.
	CandidatesSurviving uint64 `json:"candidates_surviving"`
	// BytesPass1 / BytesPass2 are the bytes streamed from secondary
	// storage in each pass (pass 1 includes the parse-free sizing scan).
	BytesPass1 int64 `json:"bytes_streamed_pass1"`
	BytesPass2 int64 `json:"bytes_streamed_pass2"`
	// Pass1Nanos / Pass2Nanos are each pass's wall time.
	Pass1Nanos int64 `json:"pass1_ns,omitempty"`
	Pass2Nanos int64 `json:"pass2_ns,omitempty"`
	// MemBudget is the configured resident-memory budget in bytes.
	MemBudget int64 `json:"mem_budget,omitempty"`
	// InputBytes is the on-disk size of the mined file (schema v2); the
	// live-telemetry progress endpoint derives completion fractions from
	// it (the file is streamed three times: sizing scan, pass 1, pass 2;
	// with more than one worker the first pass-1 chunk is also read once
	// to size the chunk buffers, which the streamed bytes do not count).
	InputBytes int64 `json:"input_bytes,omitempty"`
}

// ParallelStats are the work-stealing scheduler's counters.
type ParallelStats struct {
	TasksSpawned  uint64 `json:"tasks_spawned"`
	TasksOffered  uint64 `json:"tasks_offered"`
	TasksStolen   uint64 `json:"tasks_stolen"`
	StealFailures uint64 `json:"steal_failures"`
	// WorkerPanics counts kernel panics recovered inside pool workers and
	// converted into the run's error; normally zero.
	WorkerPanics uint64 `json:"worker_panics,omitempty"`
	// MergeNanos is the post-mining shard-merge wall time.
	MergeNanos int64 `json:"shard_merge_ns"`
	// Workers are per-worker totals, ordered by worker ID.
	Workers []WorkerStat `json:"worker_stats,omitempty"`
}

// SimStats adapts internal/memsim machine counters — the reproduction's
// stand-in for the paper's hardware PMU — onto the shared schema.
type SimStats struct {
	Machine      string     `json:"machine"`
	Cycles       float64    `json:"cycles"`
	Instructions uint64     `json:"instructions"`
	CPI          float64    `json:"cpi"`
	L1Miss       uint64     `json:"l1_miss"`
	L2Miss       uint64     `json:"l2_miss"`
	TLBMiss      uint64     `json:"tlb_miss"`
	Phases       []SimPhase `json:"phases,omitempty"`
}

// SimPhase is one kernel function's accounting (the paper's Figure 2
// granularity).
type SimPhase struct {
	Name         string  `json:"name"`
	Cycles       float64 `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	CPI          float64 `json:"cpi"`
	L1Miss       uint64  `json:"l1_miss"`
	L2Miss       uint64  `json:"l2_miss"`
	TLBMiss      uint64  `json:"tlb_miss"`
}

// WriteTable renders the snapshot as an aligned human-readable table.
func (s Snapshot) WriteTable(w io.Writer) error {
	p := func(format string, args ...any) (err error) {
		_, err = fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("kernel            %s\n", s.Kernel); err != nil {
		return err
	}
	if s.Workers > 0 {
		if err := p("workers           %d\n", s.Workers); err != nil {
			return err
		}
	}
	if s.WallNanos > 0 {
		if err := p("wall time         %s\n", time.Duration(s.WallNanos)); err != nil {
			return err
		}
	}
	if err := p("nodes expanded    %d\nsupport countings %d\nitemsets emitted  %d\ncandidate prunes  %d\n",
		s.Nodes, s.Supports, s.Emitted, s.Prunes); err != nil {
		return err
	}
	if ps := s.Parallel; ps != nil {
		if err := p("tasks spawned     %d\ntasks offered     %d\ntasks stolen      %d\nsteal failures    %d\nshard merge       %s\n",
			ps.TasksSpawned, ps.TasksOffered, ps.TasksStolen, ps.StealFailures, time.Duration(ps.MergeNanos)); err != nil {
			return err
		}
		ws := append([]WorkerStat(nil), ps.Workers...)
		sort.Slice(ws, func(a, b int) bool { return ws[a].ID < ws[b].ID })
		for _, st := range ws {
			if err := p("worker %-3d        tasks %-6d busy %-12s util %.2f\n",
				st.ID, st.Tasks, time.Duration(st.BusyNanos), st.Util); err != nil {
				return err
			}
		}
	}
	if pt := s.Partition; pt != nil {
		if err := p("chunks mined      %d\ncandidates gen    %d\ncandidates kept   %d\nbytes pass 1      %d\nbytes pass 2      %d\npass 1 time       %s\npass 2 time       %s\n",
			pt.Chunks, pt.CandidatesGenerated, pt.CandidatesSurviving, pt.BytesPass1, pt.BytesPass2,
			time.Duration(pt.Pass1Nanos), time.Duration(pt.Pass2Nanos)); err != nil {
			return err
		}
		if pt.MemBudget > 0 {
			if err := p("mem budget        %d\n", pt.MemBudget); err != nil {
				return err
			}
		}
		if pt.ChunksSkipped > 0 || pt.CheckpointsWritten > 0 || pt.CheckpointsFailed > 0 {
			if err := p("chunks skipped    %d\ncheckpoints ok    %d\ncheckpoints fail  %d\n",
				pt.ChunksSkipped, pt.CheckpointsWritten, pt.CheckpointsFailed); err != nil {
				return err
			}
		}
	}
	if sim := s.Sim; sim != nil {
		if err := p("machine           %s\ncycles            %.0f\ninstructions      %d\nCPI               %.2f\nL1 misses         %d\nL2 misses         %d\nTLB misses        %d\n",
			sim.Machine, sim.Cycles, sim.Instructions, sim.CPI, sim.L1Miss, sim.L2Miss, sim.TLBMiss); err != nil {
			return err
		}
		for _, ph := range sim.Phases {
			if err := p("phase %-12s cycles %-12.0f CPI %-6.2f L1 %-8d L2 %-8d TLB %d\n",
				ph.Name, ph.Cycles, ph.CPI, ph.L1Miss, ph.L2Miss, ph.TLBMiss); err != nil {
				return err
			}
		}
	}
	return nil
}

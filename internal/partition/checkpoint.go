package partition

// Checkpoint/resume for the out-of-core two-pass mine. After every chunk,
// Mine can persist its progress — which pass it is in, how many
// transactions of the input are fully consumed, the candidate trie and (in
// pass 2) the partial recount — to a small sidecar file next to the input.
// A later run with -resume validates that the sidecar was produced by the
// same input and the same mining configuration and then skips everything
// the crashed run completed: a kill -9 loses at most the chunk that was in
// flight.
//
// The sidecar is an FPCK frame written through internal/durable (see
// DESIGN.md §16): a crash mid-write never tears the previous checkpoint,
// and a torn or bit-flipped file is reported as ErrCheckpointCorrupt
// instead of poisoning a resume. Identity is (input size, FNV-64a of the
// input's first 64 KiB, kernel signature, minSupport, memory budget, total
// transaction count): chunk boundaries are a pure function of the byte
// budget and the starting transaction, so matching identity guarantees the
// resumed run reproduces exactly the chunks the original would have mined.

import (
	"errors"
	"fmt"
	"os"

	"fpm/internal/dataset"
	"fpm/internal/durable"
	"fpm/internal/failpoint"
)

const (
	ckptMagic   = "FPCK"
	ckptVersion = 1
)

// ErrCheckpointCorrupt reports a sidecar that is not a well-formed
// checkpoint: wrong magic, unknown version, CRC mismatch, or a payload that
// fails structural validation. It is a clean error — corrupt input never
// panics (FuzzCheckpointDecode asserts this).
var ErrCheckpointCorrupt = errors.New("partition: checkpoint corrupt")

var ckptFormat = durable.Format{Magic: ckptMagic, Version: ckptVersion, Corrupt: ErrCheckpointCorrupt}

// Checkpoint is one persisted progress record. The identity fields bind it
// to an (input, config) pair; the progress fields say where to pick up.
type Checkpoint struct {
	// Identity of the input file.
	InputSize int64
	InputHash uint64
	// Identity of the mining configuration. Kernel is the sequential
	// kernel's Name() (it encodes the algorithm and its pattern set);
	// worker count is deliberately absent — parallelism does not change
	// the result or the chunk boundaries, so a run may resume with a
	// different pool size.
	Kernel     string
	MinSupport int
	MemBudget  int64
	TotalTx    int

	// Progress. Phase is 1 (candidate generation) or 2 (exact recount);
	// ChunksDone counts pass-1 chunks mined; TxConsumed counts the
	// transactions of the *current phase* fully processed.
	Phase      int
	ChunksDone int
	TxConsumed int

	trie   *sealed
	counts []uint32 // pass-2 partial supports; len == trie.Candidates() in phase 2
}

// encode serialises the checkpoint: magic, version byte, CRC32(payload),
// payload (varint fields, the flat trie node array, the counts array).
// The trie travels in its sealed arena form, so encoding is a linear
// sweep over the CSR arrays — no per-node pointer chasing. The wire
// layout (per node: cand, child count, then item/ref pairs) is unchanged
// from the mutable-form encoder, only the node numbering differs (DFS
// prefix order), which the decoder never relied on.
func (ck *Checkpoint) encode() []byte {
	e := ckptFormat.NewEncoder()
	e.Varint(ck.InputSize)
	e.Uvarint(ck.InputHash)
	e.String(ck.Kernel)
	e.Varint(int64(ck.MinSupport))
	e.Varint(ck.MemBudget)
	e.Varint(int64(ck.TotalTx))
	e.Uvarint(uint64(ck.Phase))
	e.Varint(int64(ck.ChunksDone))
	e.Varint(int64(ck.TxConsumed))

	t := ck.trie
	nNodes := len(t.cand)
	e.Uvarint(uint64(nNodes))
	e.Uvarint(uint64(t.cands))
	for n := 0; n < nNodes; n++ {
		e.Varint(int64(t.cand[n]))
		lo, hi := t.start[n], t.start[n+1]
		e.Uvarint(uint64(hi - lo))
		for ci := lo; ci < hi; ci++ {
			e.Uvarint(uint64(t.keys[ci]))
			e.Uvarint(uint64(t.child[ci]))
		}
	}
	e.Uvarint(uint64(len(ck.counts)))
	for _, v := range ck.counts {
		e.Uvarint(uint64(v))
	}
	return e.Seal()
}

// DecodeCheckpoint parses and validates a serialised checkpoint. Any
// malformation — truncation, bit flips, hostile structure — yields an error
// wrapping ErrCheckpointCorrupt; it never panics and never allocates more
// than the input size warrants (counts claimed by the header are bounded by
// the remaining payload bytes before allocation).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	corrupt := func(what string) (*Checkpoint, error) { return nil, ckptFormat.Reject(what) }
	r, err := ckptFormat.Open(data)
	if err != nil {
		return nil, err
	}

	ck := &Checkpoint{}
	ck.InputSize = r.Varint()
	ck.InputHash = r.Uvarint()
	ck.Kernel = r.String()
	if r.Err() != nil {
		return corrupt("truncated kernel signature")
	}
	ck.MinSupport = int(r.Varint())
	ck.MemBudget = r.Varint()
	ck.TotalTx = int(r.Varint())
	ck.Phase = int(r.Uvarint())
	ck.ChunksDone = int(r.Varint())
	ck.TxConsumed = int(r.Varint())
	if r.Err() != nil {
		return corrupt("truncated header fields")
	}
	if ck.Phase != 1 && ck.Phase != 2 {
		return corrupt("phase out of range")
	}
	if ck.MinSupport < 1 || ck.TotalTx < 0 || ck.ChunksDone < 0 || ck.TxConsumed < 0 {
		return corrupt("negative progress field")
	}

	// Trie: the sealed arena form, decoded straight into CSR arrays. Every
	// structural invariant the counting walk relies on is re-validated
	// here, because the bytes may be hostile. The decoder accepts any
	// valid node numbering (old mutable-order sidecars decode fine), not
	// only the DFS prefix order the current encoder emits.
	nNodes := r.Uvarint()
	nCands := r.Uvarint()
	if r.Err() != nil {
		return corrupt("truncated trie header")
	}
	// Each node costs at least 2 payload bytes (cand varint + child count),
	// so a node count beyond the remaining bytes is a lie — reject before
	// allocating.
	if nNodes < 1 || nNodes > uint64(r.Len()) || nCands > nNodes {
		return corrupt("implausible trie size")
	}
	t := &sealed{
		start: make([]int32, nNodes+1),
		cand:  make([]int32, nNodes),
		cands: int(nCands),
	}
	seenCand := make([]bool, nCands)
	for i := uint64(0); i < nNodes; i++ {
		cand := r.Varint()
		nch := r.Uvarint()
		if r.Err() != nil {
			return corrupt("truncated trie node")
		}
		if cand < -1 || cand >= int64(nCands) {
			return corrupt("candidate id out of range")
		}
		if cand >= 0 {
			if seenCand[cand] {
				return corrupt("duplicate candidate id")
			}
			seenCand[cand] = true
		}
		if nch > uint64(r.Len()) {
			return corrupt("implausible child count")
		}
		t.start[i] = int32(len(t.keys))
		t.cand[i] = int32(cand)
		prevItem := int64(-1)
		for k := uint64(0); k < nch; k++ {
			item := r.Uvarint()
			ref := r.Uvarint()
			if r.Err() != nil {
				return corrupt("truncated trie child")
			}
			// Child rows must be strictly increasing by item (the lockstep
			// merge-join requires sorted keys) and refs must point past the
			// root and inside the array; the root at index 0 must never be
			// a child (cycles would hang Count's recursion — together with
			// ref > parent not being required, acyclicity comes from
			// ref != 0 plus each node having exactly one parent, checked
			// below).
			if int64(item) <= prevItem || item > uint64(^uint32(0)>>1) {
				return corrupt("child items not strictly increasing")
			}
			if ref == 0 || ref >= nNodes {
				return corrupt("child reference out of range")
			}
			prevItem = int64(item)
			t.keys = append(t.keys, dataset.Item(item))
			t.child = append(t.child, int32(ref))
		}
	}
	t.start[nNodes] = int32(len(t.keys))
	// Single-parent check: every non-root node is referenced exactly once,
	// which together with ref != 0 rules out cycles and sharing.
	refCount := make([]uint8, nNodes)
	for _, c := range t.child {
		if refCount[c] != 0 {
			return corrupt("node referenced twice")
		}
		refCount[c] = 1
	}
	for i := uint64(1); i < nNodes; i++ {
		if refCount[i] == 0 {
			return corrupt("orphaned trie node")
		}
	}
	ck.trie = t

	nCounts := r.Uvarint()
	if r.Err() != nil || nCounts > uint64(r.Len()) {
		return corrupt("implausible counts size")
	}
	if ck.Phase == 2 {
		if nCounts != nCands {
			return corrupt("counts length does not match candidates")
		}
	} else if nCounts != 0 {
		return corrupt("counts present outside phase 2")
	}
	if nCounts > 0 {
		ck.counts = make([]uint32, nCounts)
		for i := range ck.counts {
			v := r.Uvarint()
			if r.Err() != nil || v > uint64(^uint32(0)) {
				return corrupt("truncated counts")
			}
			ck.counts[i] = uint32(v)
		}
	}
	if r.Len() != 0 {
		return corrupt("trailing bytes")
	}
	return ck, nil
}

// SaveCheckpoint atomically persists ck to path (durable.WriteFile: temp
// file, fsync, rename), so a crash at any point leaves either the previous
// checkpoint or the new one. The partition.checkpoint.write failpoint
// fires before any byte is written, so injected write failures also leave
// the previous sidecar intact.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	if err := failpoint.Hit(failpoint.PartitionCheckpointWrite); err != nil {
		return err
	}
	if err := durable.WriteFile(path, ck.encode(), nil); err != nil {
		return fmt.Errorf("partition: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and decodes the sidecar at path.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("partition: checkpoint: %w", err)
	}
	return DecodeCheckpoint(data)
}

// removeCheckpoint deletes the sidecar after a successful run; a missing
// file (no checkpoint was ever written) is not an error.
func removeCheckpoint(path string) {
	if path != "" {
		os.Remove(path)
	}
}

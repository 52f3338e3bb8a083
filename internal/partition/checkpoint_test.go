package partition

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fpm/internal/cancel"
	"fpm/internal/dataset"
	"fpm/internal/failpoint"
	"fpm/internal/metrics"
	"fpm/internal/mine"
	"fpm/internal/parallel"
)

// testTrie builds a small trie with a few candidates for round-trip tests.
func testTrie() *trie {
	tr := newTrie()
	tr.Add([]dataset.Item{1})
	tr.Add([]dataset.Item{2})
	tr.Add([]dataset.Item{1, 2})
	tr.Add([]dataset.Item{1, 2, 5})
	tr.Add([]dataset.Item{3})
	return tr
}

func testCheckpoint(phase int) *Checkpoint {
	tr := testTrie()
	ck := &Checkpoint{
		InputSize: 12345, InputHash: 0xdeadbeefcafe,
		Kernel: `lcm("Lex|SIMD")`, MinSupport: 7, MemBudget: 1 << 20, TotalTx: 999,
		Phase: phase, ChunksDone: 3, TxConsumed: 321,
		trie: tr.Seal(),
	}
	if phase == 2 {
		ck.counts = make([]uint32, tr.Candidates())
		for i := range ck.counts {
			ck.counts[i] = uint32(10 * (i + 1))
		}
	}
	return ck
}

// trieEquivalent checks two sealed tries count identically over a probe
// set of transactions — structural equality through observable behaviour.
func trieEquivalent(t *testing.T, a, b *sealed) {
	t.Helper()
	if a.Candidates() != b.Candidates() {
		t.Fatalf("candidate counts differ: %d vs %d", a.Candidates(), b.Candidates())
	}
	probes := []dataset.Transaction{
		{1}, {2}, {3}, {1, 2}, {1, 2, 5}, {1, 2, 3, 5}, {0, 4, 9}, {},
	}
	ca := verticalCounts(a, probes)
	cb := verticalCounts(b, probes)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("count diverges at candidate %d: %d vs %d", i, ca[i], cb[i])
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	for _, phase := range []int{1, 2} {
		ck := testCheckpoint(phase)
		got, err := DecodeCheckpoint(ck.encode())
		if err != nil {
			t.Fatalf("phase %d: decode: %v", phase, err)
		}
		if got.InputSize != ck.InputSize || got.InputHash != ck.InputHash ||
			got.Kernel != ck.Kernel || got.MinSupport != ck.MinSupport ||
			got.MemBudget != ck.MemBudget || got.TotalTx != ck.TotalTx ||
			got.Phase != ck.Phase || got.ChunksDone != ck.ChunksDone ||
			got.TxConsumed != ck.TxConsumed {
			t.Fatalf("phase %d: fields diverge:\n got %+v\nwant %+v", phase, got, ck)
		}
		trieEquivalent(t, ck.trie, got.trie)
		if phase == 2 && !bytes.Equal(u32bytes(got.counts), u32bytes(ck.counts)) {
			t.Fatalf("counts diverge: %v vs %v", got.counts, ck.counts)
		}
	}
}

func u32bytes(v []uint32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], x)
	}
	return out
}

// reframe recomputes the CRC over a (mutated) payload so structural
// validation — not the checksum — is what rejects the input.
func reframe(payload []byte) []byte {
	out := append([]byte(ckptMagic), ckptVersion)
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(payload))
	out = append(out, crcb[:]...)
	return append(out, payload...)
}

func TestDecodeCheckpointRejectsCorruption(t *testing.T) {
	valid := testCheckpoint(2).encode()
	payload := append([]byte(nil), valid[len(ckptMagic)+1+4:]...)

	cases := map[string][]byte{
		"empty":          nil,
		"short header":   valid[:6],
		"bad magic":      append([]byte("JUNK"), valid[4:]...),
		"bad version":    append(append([]byte(ckptMagic), 99), valid[5:]...),
		"truncated body": valid[:len(valid)-3],
		"trailing bytes": reframe(append(append([]byte(nil), payload...), 0)),
		"empty payload":  reframe(nil),
	}
	// A bit flip anywhere in the payload must be caught by the CRC.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x40
	cases["bit flip"] = flipped

	for name, data := range cases {
		ck, err := DecodeCheckpoint(data)
		if err == nil {
			t.Fatalf("%s: decoded to %+v, want error", name, ck)
		}
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrCheckpointCorrupt", name, err)
		}
	}
}

// TestDecodeCheckpointHostileTrie hand-crafts payloads whose trie section
// violates the structural invariants the counting walk relies on; each must
// be rejected (the decoder guarantees the mining code never sees them).
func TestDecodeCheckpointHostileTrie(t *testing.T) {
	// header writes the fixed fields up to the trie section.
	header := func() *bytes.Buffer {
		var b bytes.Buffer
		var vb [binary.MaxVarintLen64]byte
		wi := func(v int64) { b.Write(vb[:binary.PutVarint(vb[:], v)]) }
		wu := func(v uint64) { b.Write(vb[:binary.PutUvarint(vb[:], v)]) }
		wi(100)  // InputSize
		wu(7)    // InputHash
		wu(0)    // kernel len
		wi(2)    // MinSupport
		wi(1024) // MemBudget
		wi(50)   // TotalTx
		wu(1)    // Phase
		wi(1)    // ChunksDone
		wi(10)   // TxConsumed
		return &b
	}
	wu := func(b *bytes.Buffer, v uint64) {
		var vb [binary.MaxVarintLen64]byte
		b.Write(vb[:binary.PutUvarint(vb[:], v)])
	}
	wi := func(b *bytes.Buffer, v int64) {
		var vb [binary.MaxVarintLen64]byte
		b.Write(vb[:binary.PutVarint(vb[:], v)])
	}

	cases := map[string]func() []byte{
		"allocation bomb node count": func() []byte {
			b := header()
			wu(b, 1<<40) // nNodes far beyond the remaining bytes
			wu(b, 0)
			return b.Bytes()
		},
		"self cycle": func() []byte {
			b := header()
			wu(b, 2) // 2 nodes
			wu(b, 1) // 1 cand
			wi(b, -1)
			wu(b, 1)
			wu(b, 3) // child item 3 ...
			wu(b, 1) // ... -> node 1
			wi(b, 0) // node 1: cand 0
			wu(b, 1)
			wu(b, 5)
			wu(b, 1) // node 1 references itself -> double reference
			wu(b, 0) // counts
			return b.Bytes()
		},
		"child ref to root": func() []byte {
			b := header()
			wu(b, 2)
			wu(b, 1)
			wi(b, -1)
			wu(b, 1)
			wu(b, 3)
			wu(b, 0) // child points back at the root
			wi(b, 0)
			wu(b, 0)
			wu(b, 0)
			return b.Bytes()
		},
		"unsorted children": func() []byte {
			b := header()
			wu(b, 3)
			wu(b, 2)
			wi(b, -1)
			wu(b, 2)
			wu(b, 5)
			wu(b, 1)
			wu(b, 4) // 4 after 5: not strictly increasing
			wu(b, 2)
			wi(b, 0)
			wu(b, 0)
			wi(b, 1)
			wu(b, 0)
			wu(b, 0)
			return b.Bytes()
		},
		"orphan node": func() []byte {
			b := header()
			wu(b, 2) // node 1 never referenced
			wu(b, 1)
			wi(b, -1)
			wu(b, 0)
			wi(b, 0)
			wu(b, 0)
			wu(b, 0)
			return b.Bytes()
		},
		"duplicate candidate id": func() []byte {
			b := header()
			wu(b, 3)
			wu(b, 1)
			wi(b, -1)
			wu(b, 2)
			wu(b, 1)
			wu(b, 1)
			wu(b, 2)
			wu(b, 2)
			wi(b, 0)
			wu(b, 0)
			wi(b, 0) // cand 0 again
			wu(b, 0)
			wu(b, 0)
			return b.Bytes()
		},
		"counts outside phase 2": func() []byte {
			b := header() // phase 1
			wu(b, 1)
			wu(b, 0)
			wi(b, -1)
			wu(b, 0)
			wu(b, 3) // counts present in phase 1
			wu(b, 1)
			wu(b, 2)
			wu(b, 3)
			return b.Bytes()
		},
	}
	for name, build := range cases {
		data := reframe(build())
		ck, err := DecodeCheckpoint(data)
		if err == nil {
			t.Fatalf("%s: accepted hostile trie: %+v", name, ck)
		}
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrCheckpointCorrupt", name, err)
		}
	}
}

func TestSaveCheckpointAtomicAndBestEffort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mine.fpmck")
	ck := testCheckpoint(1)
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ChunksDone != ck.ChunksDone {
		t.Fatalf("loaded ChunksDone = %d, want %d", got.ChunksDone, ck.ChunksDone)
	}

	// An injected write failure must fail the save and leave the previous
	// sidecar byte-identical — no torn file, no leftover temp.
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := failpoint.New()
	reg.Fail(failpoint.PartitionCheckpointWrite, errors.New("disk full"))
	failpoint.Enable(reg)
	t.Cleanup(failpoint.Disable)
	next := testCheckpoint(2)
	if err := SaveCheckpoint(path, next); err == nil {
		t.Fatal("injected write failure did not surface")
	}
	failpoint.Disable()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save modified the previous sidecar")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// mineAll runs a partitioned mine and returns its canonical result set.
func mineAll(t *testing.T, path string, minSupport int, cfg Config) (mine.ResultSet, error) {
	t.Helper()
	got := mine.ResultSet{}
	err := Mine(path, lcmFactory, minSupport, cfg, got)
	return got, err
}

func TestResumeAfterCrashMatchesClean(t *testing.T) {
	db := randomDB(11, 160, 16)
	path := writeTemp(t, db)
	const minsup, budget = 6, 2048

	want, err := mineAll(t, path, minsup, Config{MemBudget: budget, Pool: parallel.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "run.fpmck")
	// Crash the run after two chunks have been mined and checkpointed.
	reg := failpoint.New()
	boom := errors.New("simulated crash")
	reg.FailAfter(failpoint.PartitionChunkMine, 2, boom)
	failpoint.Enable(reg)
	t.Cleanup(failpoint.Disable)
	rec := metrics.NewRecorder()
	_, err = mineAll(t, path, minsup, Config{MemBudget: budget,
		Checkpoint: ckpt, Pool: parallel.Options{Workers: 1, Metrics: rec}})
	failpoint.Disable()
	if !errors.Is(err, boom) {
		t.Fatalf("crashed run error = %v, want injected crash", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("crashed run left no sidecar: %v", err)
	}

	// Resume: must skip the completed chunks and produce the clean answer.
	rec2 := metrics.NewRecorder()
	got, err := mineAll(t, path, minsup, Config{MemBudget: budget,
		Checkpoint: ckpt, Resume: true, Pool: parallel.Options{Workers: 1, Metrics: rec2}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("resumed run diverges from clean run:\n%s", want.Diff(got, 10))
	}
	snap := rec2.Snapshot()
	if snap.Partition == nil || snap.Partition.ChunksSkipped != 2 {
		t.Fatalf("resume skipped %+v chunks, want 2", snap.Partition)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("sidecar not removed after successful resume: %v", err)
	}
}

// TestResumeAcrossWorkerCountChange: pass 1 frames its chunks by the
// worker count (the chunk budget is split between up to workers buffers),
// so a run resumed under another count re-frames every chunk after the
// checkpointed prefix. SON holds for any partition of the rows, so the
// listing must still equal a clean run's, and the prefix must be skipped.
// Here one worker frames chunks of about 200 rows, two of about 100 and
// four (three buffers, see splitBuffers) of about 67.
func TestResumeAcrossWorkerCountChange(t *testing.T) {
	db := randomDB(13, 600, 14)
	path := writeTemp(t, db)
	const minsup, budget = 40, 100 << 10

	want, err := mineAll(t, path, minsup, Config{MemBudget: budget, Pool: parallel.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.Disable)
	for _, tc := range []struct{ from, to int }{{4, 1}, {1, 2}, {2, 4}} {
		t.Run(fmt.Sprintf("%d-to-%d", tc.from, tc.to), func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "run.fpmck")
			// Crash as chunk tc.from is handed to the pool: the failing run
			// still merges and checkpoints the tc.from chunks before it.
			reg := failpoint.New()
			boom := errors.New("simulated crash")
			reg.FailAfter(failpoint.PartitionChunkMine, tc.from, boom)
			failpoint.Enable(reg)
			_, err := mineAll(t, path, minsup, Config{MemBudget: budget,
				Checkpoint: ckpt, Pool: parallel.Options{Workers: tc.from}})
			failpoint.Disable()
			if !errors.Is(err, boom) {
				t.Fatalf("crashed run error = %v", err)
			}
			// Identity deliberately excludes the worker count, so the
			// checkpoint must still be honoured.
			rec := metrics.NewRecorder()
			got, err := mineAll(t, path, minsup, Config{MemBudget: budget,
				Checkpoint: ckpt, Resume: true, Pool: parallel.Options{Workers: tc.to, Metrics: rec}})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("cross-worker resume diverges:\n%s", want.Diff(got, 10))
			}
			if snap := rec.Snapshot(); snap.Partition == nil || snap.Partition.ChunksSkipped < 1 {
				t.Fatalf("resume skipped no chunk: %+v", snap.Partition)
			}
		})
	}
}

// TestResumeAfterPass2Crash: pass 2 counts its chunks on the pool's
// workers, each into its own counts, and adds them in file order. A run
// at two workers that fails as pass-2 chunk k+1 is handed out must leave a
// phase-2 sidecar whose counts are exactly a one-worker recount of the
// transactions it records, and a resumed run must give the clean answer
// without recounting those transactions.
func TestResumeAfterPass2Crash(t *testing.T) {
	db := randomDB(29, 600, 14)
	path := writeTemp(t, db)
	const minsup, budget = 40, 100 << 10
	t.Cleanup(failpoint.Disable)

	// The clean run counts how many pass-2 chunks there are.
	reg := failpoint.New()
	failpoint.Enable(reg)
	want, err := mineAll(t, path, minsup, Config{MemBudget: budget, Pool: parallel.Options{Workers: 2}})
	failpoint.Disable()
	if err != nil {
		t.Fatal(err)
	}
	chunks := reg.Hits(failpoint.PartitionRecountChunk)
	if chunks < 4 {
		t.Fatalf("clean run counted %d pass-2 chunks; the test needs at least 4", chunks)
	}
	for _, k := range []int{1, chunks - 2} {
		t.Run(fmt.Sprintf("after-%d", k), func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "run.fpmck")
			reg := failpoint.New()
			boom := errors.New("simulated crash")
			reg.FailAfter(failpoint.PartitionRecountChunk, k, boom)
			failpoint.Enable(reg)
			_, err := mineAll(t, path, minsup, Config{MemBudget: budget,
				Checkpoint: ckpt, Pool: parallel.Options{Workers: 2}})
			failpoint.Disable()
			if !errors.Is(err, boom) {
				t.Fatalf("crashed run error = %v, want injected crash", err)
			}
			ck, err := LoadCheckpoint(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Phase != 2 || ck.TxConsumed <= 0 || ck.TxConsumed >= db.Len() {
				t.Fatalf("sidecar phase %d records %d of %d transactions", ck.Phase, ck.TxConsumed, db.Len())
			}
			wantCounts := verticalCounts(ck.trie, db.Tx[:ck.TxConsumed])
			if !slices.Equal(ck.counts, wantCounts) {
				t.Fatalf("sidecar counts differ from a recount of its %d transactions:\n got %v\nwant %v",
					ck.TxConsumed, ck.counts, wantCounts)
			}

			reg = failpoint.New()
			failpoint.Enable(reg)
			rec := metrics.NewRecorder()
			got, err := mineAll(t, path, minsup, Config{MemBudget: budget,
				Checkpoint: ckpt, Resume: true, Pool: parallel.Options{Workers: 2, Metrics: rec}})
			failpoint.Disable()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("resumed run diverges from clean run:\n%s", want.Diff(got, 10))
			}
			if snap := rec.Snapshot(); snap.Partition == nil || snap.Partition.ChunksSkipped < 1 {
				t.Fatalf("resume skipped no chunk: %+v", snap.Partition)
			}
			if n := reg.Hits(failpoint.PartitionRecountChunk); n != chunks-k {
				t.Fatalf("resumed run recounted %d pass-2 chunks, want the %d after the sidecar's", n, chunks-k)
			}
		})
	}
}

// TestResumeIdentityMismatch: a sidecar from a different input or config
// must be ignored — the run silently starts fresh and stays correct.
func TestResumeIdentityMismatch(t *testing.T) {
	db := randomDB(17, 140, 15)
	path := writeTemp(t, db)
	const minsup, budget = 5, 2048
	want, err := mineAll(t, path, minsup, Config{MemBudget: budget, Pool: parallel.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "run.fpmck")
	crash := func() {
		t.Helper()
		reg := failpoint.New()
		reg.FailAfter(failpoint.PartitionChunkMine, 1, errors.New("crash"))
		failpoint.Enable(reg)
		_, err := mineAll(t, path, minsup, Config{MemBudget: budget, Checkpoint: ckpt, Pool: parallel.Options{Workers: 1}})
		failpoint.Disable()
		if err == nil {
			t.Fatal("crash did not crash")
		}
	}
	t.Cleanup(failpoint.Disable)

	// Different support: the sidecar's config identity must not match.
	crash()
	got, err := mineAll(t, path, minsup+1, Config{MemBudget: budget,
		Checkpoint: ckpt, Resume: true, Pool: parallel.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wantHigher, err := mineAll(t, path, minsup+1, Config{MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(wantHigher) {
		t.Fatal("resume with different support reused a mismatched checkpoint")
	}

	// Changed input (appended rows): size differs, sidecar must be ignored.
	crash()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("0 1 2\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := mineAll(t, path, minsup, Config{MemBudget: budget,
		Checkpoint: ckpt, Resume: true, Pool: parallel.Options{Workers: 1}}); err != nil {
		t.Fatalf("resume against changed input failed instead of starting fresh: %v", err)
	}

	// Corrupt sidecar: ditto.
	if err := os.WriteFile(ckpt, []byte("FPCKgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got2, err := mineAll(t, path, minsup, Config{MemBudget: budget,
		Checkpoint: ckpt, Resume: true, Pool: parallel.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	want2, err := mineAll(t, path, minsup, Config{MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(want2) {
		t.Fatal("resume with corrupt sidecar diverges from fresh run")
	}
	_ = want
}

// TestCheckpointWriteFailureIsBestEffort: every checkpoint write failing
// must not fail the mine — the run completes with the exact answer and the
// failures are counted.
func TestCheckpointWriteFailureIsBestEffort(t *testing.T) {
	db := randomDB(19, 130, 15)
	path := writeTemp(t, db)
	want, err := mineAll(t, path, 5, Config{MemBudget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	reg := failpoint.New()
	reg.Fail(failpoint.PartitionCheckpointWrite, errors.New("disk full"))
	failpoint.Enable(reg)
	t.Cleanup(failpoint.Disable)
	rec := metrics.NewRecorder()
	got, err := mineAll(t, path, 5, Config{MemBudget: 2048,
		Checkpoint: filepath.Join(t.TempDir(), "x.fpmck"), Pool: parallel.Options{Metrics: rec}})
	failpoint.Disable()
	if err != nil {
		t.Fatalf("best-effort checkpointing failed the mine: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("result diverges under checkpoint write failures")
	}
	snap := rec.Snapshot()
	if snap.Partition == nil || snap.Partition.CheckpointsFailed == 0 {
		t.Fatalf("checkpoint failures not counted: %+v", snap.Partition)
	}
}

// TestCancelLeavesSidecarForResume: a cancelled checkpointed run returns
// the cancellation cause and leaves the sidecar so it can be resumed.
func TestCancelLeavesSidecarForResume(t *testing.T) {
	db := randomDB(23, 160, 16)
	path := writeTemp(t, db)
	const minsup, budget = 6, 2048
	want, err := mineAll(t, path, minsup, Config{MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "run.fpmck")
	cf := cancel.New()
	cf.Set(context.Canceled)
	_, err = mineAll(t, path, minsup, Config{MemBudget: budget, Checkpoint: ckpt, Pool: parallel.Options{Cancel: cf}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}

	got, err := mineAll(t, path, minsup, Config{MemBudget: budget, Checkpoint: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("resume after cancellation diverges")
	}
}

// TestCheckpointGoldenBytes pins the FPCK wire format: the encodings of
// both phases' fixed checkpoints must stay byte-identical to the hex
// captured from the format's first encoder, and must decode back to the
// same bytes, so sidecars written by any earlier build still resume.
func TestCheckpointGoldenBytes(t *testing.T) {
	golden := map[int]string{
		1: "4650434b01bad0e664f2c001fe95bff7dbd5370f6c636d28224c65787c53494d4422290e80808001ce0f0106820506050103010102040305000102020401050306000200080000",
		2: "4650434b0150974d3df2c001fe95bff7dbd5370f6c636d28224c65787c53494d4422290e80808001ce0f02068205060501030101020403050001020204010503060002000800050a141e2832",
	}
	for phase, want := range golden {
		if got := hex.EncodeToString(testCheckpoint(phase).encode()); got != want {
			t.Fatalf("phase %d encoding drifted:\n got %s\nwant %s", phase, got, want)
		}
		data, _ := hex.DecodeString(want)
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("phase %d golden does not decode: %v", phase, err)
		}
		if !bytes.Equal(ck.encode(), data) {
			t.Fatalf("phase %d golden does not re-encode to itself", phase)
		}
	}
}

package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"fpm"
	"fpm/internal/bitvec"
	"fpm/internal/partition"
)

// denseCell is one (kernel, corpus) pair of the mine-dense cycle.
type denseCell struct {
	kernel fpm.Algorithm
	corpus string
	path   string
	bytes  int64
	sup    int
	want   answer
}

type denseSession struct {
	cells []denseCell
	rng   *rand.Rand
	// a, b are occurrence vectors of skew6k's two most frequent items, the
	// operands of the bitvec.AndCount probe.
	a, b *bitvec.Vector
}

type denseCorpus struct {
	name string
	db   *fpm.DB
	sup  int
}

// denseCorpora are the Figure-8 corpora of bench_test.go, with the
// generator seeds fixed there: corpus content drives mining time, so a
// per-run seed would move the latency metrics by more than their bounds
// (itemset counts vary ±30% between Quest seeds). The run's seed orders
// the op stream instead. Supports are raised above bench_test.go's so one
// 9-op cycle stays near a second.
func denseCorpora(tiny bool) []denseCorpus {
	// Tiny corpora are an eighth of the size, mined at a quarter of the
	// support, so their ops take milliseconds.
	scale, supScale := 1, 1
	if tiny {
		scale, supScale = 8, 4
	}
	return []denseCorpus{
		{"quest4k", fpm.GenerateQuest(fpm.QuestConfig{Transactions: 4000 / scale, AvgLen: 20, AvgPatternLen: 6,
			Items: 400, Patterns: 80, Seed: 11}), 80 / supScale},
		{"docs3k", fpm.GenerateCorpus(fpm.CorpusConfig{Docs: 3000 / scale, Vocab: 3000, AvgLen: 30, ZipfS: 1.25,
			Topics: 12, TopicShare: 0.6, TopicPool: 60, Seed: 12}), 300 / supScale},
		{"skew6k", fpm.GenerateCorpus(fpm.CorpusConfig{Docs: 6000 / scale, Vocab: 2000, AvgLen: 24, ZipfS: 1.3,
			Topics: 8, TopicShare: 0.7, TopicPool: 50, Seed: 21}), 350 / supScale},
	}
}

var denseKernels = []fpm.Algorithm{fpm.LCM, fpm.Eclat, fpm.FPGrowth}

func setupDense(cfg config, dir string) (session, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &denseSession{rng: rand.New(rand.NewSource(cfg.seed))}
	for _, c := range denseCorpora(cfg.tiny) {
		path := filepath.Join(dir, c.name+".dat")
		if err := fpm.WriteFIMIFile(path, c.db); err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		// The reference is untuned LCM on the parsed file, the same bytes
		// every op reads.
		db, err := fpm.ReadFIMIFile(path)
		if err != nil {
			return nil, err
		}
		ref, err := fpm.Mine(db, fpm.LCM, 0, c.sup)
		if err != nil {
			return nil, err
		}
		want := digestOf(ref)
		for _, k := range denseKernels {
			s.cells = append(s.cells, denseCell{kernel: k, corpus: c.name, path: path, bytes: fi.Size(), sup: c.sup, want: want})
		}
		if c.name == "skew6k" {
			s.a, s.b = topTwoVectors(db)
		}
	}
	return s, nil
}

// topTwoVectors builds the occurrence vectors of db's two most frequent
// items.
func topTwoVectors(db *fpm.DB) (*bitvec.Vector, *bitvec.Vector) {
	freq := db.Frequencies()
	var i1, i2 fpm.Item
	best1, best2 := -1, -1
	for it, f := range freq {
		switch {
		case f > best1:
			best2, i2 = best1, i1
			best1, i1 = f, fpm.Item(it)
		case f > best2:
			best2, i2 = f, fpm.Item(it)
		}
	}
	a, b := bitvec.New(db.Len()), bitvec.New(db.Len())
	for ti, t := range db.Tx {
		for _, it := range t {
			if it == i1 {
				a.Set(ti)
			}
			if it == i2 {
				b.Set(ti)
			}
		}
	}
	return a, b
}

func (s *denseSession) close() error { return nil }

// denseOp is one timed op: file → parsed DB → listing.
type denseOp struct {
	parse, mine, total time.Duration
	sets               []fpm.Itemset
	snap               fpm.Snapshot
}

// mineOnce runs one op. Traced ops mine through fpm.WithMetrics for the
// kernel's exact counters; the others through fpm.NewMiner(...).Mine.
func mineOnce(c denseCell, patterns fpm.PatternSet, traced bool) (denseOp, error) {
	t0 := time.Now()
	db, err := fpm.ReadFIMIFile(c.path)
	if err != nil {
		return denseOp{}, err
	}
	t1 := time.Now()
	var op denseOp
	if traced {
		op.sets, op.snap, err = fpm.WithMetrics(db, c.kernel, patterns, c.sup, 1)
		t2 := time.Now()
		op.parse, op.mine, op.total = t1.Sub(t0), t2.Sub(t1), t2.Sub(t0)
		return op, err
	}
	m, err := fpm.NewMiner(c.kernel, patterns)
	if err != nil {
		return denseOp{}, err
	}
	var sc fpm.SliceCollector
	t2 := time.Now()
	err = m.Mine(db, c.sup, &sc)
	t3 := time.Now()
	op.sets, op.parse, op.mine, op.total = sc.Sets, t1.Sub(t0), t3.Sub(t2), t3.Sub(t0)
	return op, err
}

// run goes round-robin over the nine cells in a seeded order per cycle
// and stops at the first cycle boundary past d, so every cell is measured
// equally often. A traced window visits each cell three times per cycle:
// tuned untraced, tuned traced and untuned.
func (s *denseSession) run(d time.Duration, traced bool, tr *tracer) (window, error) {
	var w window
	tr.track(0, "client")
	type cellStats struct{ tuned, untuned []float64 }
	per := make([]cellStats, len(s.cells))
	var parse, total []float64
	var parsedBytes float64
	supports, nodes := map[fpm.Algorithm][]float64{}, map[fpm.Algorithm][]float64{}
	var harness time.Duration
	opID := 0

	// do runs one op, checks it and returns it; ok is false for a failed
	// or wrong op, which is counted and not measured.
	do := func(c denseCell, patterns fpm.PatternSet, tracedOp bool) (denseOp, bool) {
		opID++
		w.attempted++
		harness += settle()
		start := time.Now()
		op, err := mineOnce(c, patterns, tracedOp)
		if err != nil {
			w.fail("%s on %s: %v", c.kernel, c.corpus, err)
			return op, false
		}
		t := time.Now()
		got := digestOf(op.sets)
		op.sets = nil
		harness += time.Since(t)
		if got != c.want {
			w.fail("%s on %s: %d itemsets, digest %x; want %d, %x", c.kernel, c.corpus, got.n, got.digest, c.want.n, c.want.digest)
			return op, false
		}
		if diff := op.total - op.parse - op.mine; diff < 0 || diff > op.total/20 {
			w.problem("layer sum: parse %v + mine %v vs op %v", op.parse, op.mine, op.total)
		}
		if tracedOp {
			tr.add("op "+string(c.kernel)+"/"+c.corpus, 0, opID, start, start.Add(op.total))
			tr.add("parse", 0, opID, start, start.Add(op.parse))
			tr.add("mine", 0, opID, start.Add(op.total-op.mine), start.Add(op.total))
		}
		return op, true
	}

	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < d; cycle++ {
		for _, ci := range s.rng.Perm(len(s.cells)) {
			c := s.cells[ci]
			applicable := fpm.Applicable(c.kernel)
			if op, ok := do(c, applicable, false); ok {
				w.lat = append(w.lat, ms(op.total))
				per[ci].tuned = append(per[ci].tuned, ms(op.mine))
				parse = append(parse, ms(op.parse))
				total = append(total, ms(op.total))
				parsedBytes += float64(c.bytes)
			}
			if !traced {
				continue
			}
			if op, ok := do(c, applicable, true); ok {
				w.tracedLat = append(w.tracedLat, ms(op.total))
				supports[c.kernel] = append(supports[c.kernel], float64(op.snap.Supports))
				nodes[c.kernel] = append(nodes[c.kernel], float64(op.snap.Nodes))
			}
			if op, ok := do(c, 0, false); ok {
				per[ci].untuned = append(per[ci].untuned, ms(op.mine))
			}
		}
	}
	w.busy = time.Since(start) - harness
	if !traced {
		return w, nil
	}

	w.layers = map[string]Metric{
		"fimi.parse_ms":        {median(parse), "ms"},
		"fimi.parse_mib_per_s": {parsedBytes / (1 << 20) / (sum(parse) / 1e3), "MiB/s"},
		"fimi.parse_share":     {sum(parse) / sum(total), "ratio"},
	}
	for ci, c := range s.cells {
		prefix := string(c.kernel) + "." + c.corpus + "."
		tuned, untuned := median(per[ci].tuned), median(per[ci].untuned)
		w.layers[prefix+"tuned_ms"] = Metric{tuned, "ms"}
		w.layers[prefix+"untuned_ms"] = Metric{untuned, "ms"}
		speedup := 0.0
		if tuned > 0 {
			speedup = untuned / tuned
		}
		w.layers[prefix+"speedup"] = Metric{speedup, "ratio"}
	}
	for _, k := range denseKernels {
		w.layers[string(k)+".support_countings"] = Metric{mean(supports[k]), "count"}
		w.layers[string(k)+".nodes_expanded"] = Metric{mean(nodes[k]), "count"}
	}
	nsPerWord := s.andCountNsPerWord()
	w.layers["bitvec.and_count_ns_per_word"] = Metric{nsPerWord, "ns"}
	// Each word reads two operand words and writes one: 24 bytes moved,
	// computed from the access pattern, not measured.
	w.layers["bitvec.and_count_gib_per_s"] = Metric{24 / nsPerWord * 1e9 / (1 << 30), "GiB/s"}
	return w, nil
}

// andCountNsPerWord times bitvec.AndCount on the skew6k vectors and
// returns the median over batches of nanoseconds per 64-bit word.
func (s *denseSession) andCountNsPerWord() float64 {
	const batches, calls = 7, 20000
	dst := bitvec.New(s.a.Len())
	words := float64(s.a.Words())
	var perWord []float64
	total := 0
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			total += bitvec.AndCount(dst, s.a, s.b)
		}
		perWord = append(perWord, float64(time.Since(t0).Nanoseconds())/(calls*words))
	}
	if total < 0 {
		panic("negative popcount")
	}
	return median(perWord)
}

// oocSession mines one on-disk corpus out of core per op.
type oocSession struct {
	path   string
	sup    int
	budget int64
	want   answer
}

// oocWorkers is the fixed mining parallelism of mine-ooc.
const oocWorkers = 2

// setupOOC writes a DS4-like sparse corpus (shuffled Zipf documents, no
// topics) and mines it in memory for the reference. The corpus content is
// fixed, like mine-dense's, so every run mines the same multiset of
// transactions; the run's seed shuffles their order on disk, which moves
// every SON chunk boundary. A chunk's pass-1 threshold scales with its
// size, so an order whose short last chunk collapses it to one or two
// (visible as a candidate union far larger than the answer, or a refused
// run) measures that chunk, not the path; such an order is replaced by
// the seed's next shuffle.
func setupOOC(cfg config, dir string) (session, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	docs, sup, divisor := 40000, 1200, int64(4)
	if cfg.tiny {
		// A tenth of the corpus needs the whole file as its budget to keep
		// its chunks above the SON threshold collapse.
		docs, sup, divisor = 4000, 120, 1
	}
	db := fpm.GenerateCorpus(fpm.CorpusConfig{Docs: docs, Vocab: 10000, AvgLen: 10, ZipfS: 1.1, Seed: 13})
	ref, err := fpm.Mine(db, fpm.LCM, 0, sup)
	if err != nil {
		return nil, err
	}
	want := digestOf(ref)
	path := filepath.Join(dir, "ap.dat")
	rng := rand.New(rand.NewSource(cfg.seed))
	for draw := 0; draw < 16; draw++ {
		rng.Shuffle(len(db.Tx), func(i, j int) { db.Tx[i], db.Tx[j] = db.Tx[j], db.Tx[i] })
		if err := fpm.WriteFIMIFile(path, db); err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		s := &oocSession{path: path, sup: sup, budget: fi.Size() / divisor, want: want}
		// Warm-up op, which also screens the order.
		sets, ps, err := fpm.MinePartitioned(path, fpm.LCM, fpm.Applicable(fpm.LCM), sup, s.budget, oocWorkers)
		if errors.Is(err, partition.ErrBudgetTooSmall) || (err == nil && ps.CandidatesGenerated > 20*uint64(len(sets))) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if got := digestOf(sets); got != want {
			return nil, fmt.Errorf("out-of-core listing differs from in-memory reference: %d itemsets, want %d", got.n, want.n)
		}
		return s, nil
	}
	return nil, errors.New("no transaction order keeps the SON chunk threshold above 2")
}

func (s *oocSession) close() error { return nil }

// run mines the corpus out of core back to back for d (at least two ops).
func (s *oocSession) run(d time.Duration, traced bool, tr *tracer) (window, error) {
	var w window
	tr.track(0, "client")
	var pass1, pass2, other, chunks, cands, mib, spawned, stolen, stealFails, merge, util []float64
	var survived float64
	var harness time.Duration
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < d; i++ {
		tracedOp := traced && i%2 == 1
		var opts []fpm.ParallelOption
		var rec *fpm.MetricsRecorder
		if tracedOp {
			rec = fpm.NewMetricsRecorder()
			opts = append(opts, fpm.ParallelMetrics(rec))
		}
		w.attempted++
		harness += settle()
		t0 := time.Now()
		sets, ps, err := fpm.MinePartitioned(s.path, fpm.LCM, fpm.Applicable(fpm.LCM), s.sup, s.budget, oocWorkers, opts...)
		t1 := time.Now()
		if err != nil {
			w.fail("out-of-core op: %v", err)
			continue
		}
		got := digestOf(sets)
		harness += time.Since(t1)
		if got != s.want {
			w.fail("out-of-core listing: %d itemsets, digest %x; want %d, %x", got.n, got.digest, s.want.n, s.want.digest)
			continue
		}
		op := t1.Sub(t0)
		p1, p2 := time.Duration(ps.Pass1Nanos), time.Duration(ps.Pass2Nanos)
		if p1+p2 > op {
			w.problem("layer sum: pass1 %v + pass2 %v exceeds op %v", p1, p2, op)
		}
		if !tracedOp {
			w.lat = append(w.lat, ms(op))
			continue
		}
		w.tracedLat = append(w.tracedLat, ms(op))
		// The snapshot gives pass durations, not start times: the spans
		// are laid out from the op's start, with the remainder last.
		tr.add("op", 0, i, t0, t1)
		tr.add("pass1", 0, i, t0, t0.Add(p1))
		tr.add("pass2", 0, i, t0.Add(p1), t0.Add(p1+p2))
		tr.add("other", 0, i, t0.Add(p1+p2), t1)
		pass1 = append(pass1, ms(p1))
		pass2 = append(pass2, ms(p2))
		other = append(other, ms(op-p1-p2))
		chunks = append(chunks, float64(ps.Chunks))
		cands = append(cands, float64(ps.CandidatesGenerated))
		survived += float64(ps.CandidatesSurviving)
		mib = append(mib, float64(ps.BytesPass1+ps.BytesPass2)/(1<<20))
		if par := rec.Snapshot().Parallel; par != nil {
			spawned = append(spawned, float64(par.TasksSpawned))
			stolen = append(stolen, float64(par.TasksStolen))
			stealFails = append(stealFails, float64(par.StealFailures))
			merge = append(merge, float64(par.MergeNanos)/1e6)
			var u []float64
			for _, ws := range par.Workers {
				u = append(u, ws.Util)
			}
			util = append(util, mean(u))
		}
	}
	w.busy = time.Since(start) - harness
	if !traced {
		return w, nil
	}
	survival := 0.0
	if generated := sum(cands); generated > 0 {
		survival = survived / generated
	}
	w.layers = map[string]Metric{
		"parallel.tasks_spawned":         {mean(spawned), "count"},
		"parallel.tasks_stolen":          {mean(stolen), "count"},
		"parallel.steal_failures":        {mean(stealFails), "count"},
		"parallel.merge_ms":              {mean(merge), "ms"},
		"parallel.utilization":           {mean(util), "ratio"},
		"partition.pass1_ms":             {median(pass1), "ms"},
		"partition.pass2_ms":             {median(pass2), "ms"},
		"partition.other_ms":             {median(other), "ms"},
		"partition.chunks":               {mean(chunks), "count"},
		"partition.candidates_generated": {mean(cands), "count"},
		"partition.candidate_survival":   {survival, "ratio"},
		"partition.mib_streamed":         {mean(mib), "MiB"},
	}
	return w, nil
}

package jobs

// Job journal: a tiny append-only WAL of job state transitions, so a
// restarted `fpm serve` can report what a crash lost and requeue the
// jobs that were queued or running when the process died. One NDJSON
// record per transition — the same shape discipline as the flight
// recorder, one JSON object per line — appended under the store lock so
// record order matches observable state order. Appends rely on the
// kernel page cache for kill -9 durability (a SIGKILL does not lose
// written() bytes; only a machine crash can, and recovery is
// best-effort by design: a lost record costs a re-mine, never wrong
// results, because mining is idempotent and the result cache dedupes by
// input identity).
//
// Each process lifetime writes its own generation, jobs.journal.<gen>,
// so job IDs — which restart at 0 — stay unambiguous across restarts.
// OpenJournalDir replays every generation and opens the next one;
// Store.Resubmit retires the replayed generations once the new one holds
// the resubmissions on stable storage.
//
// Reading tolerates a torn tail: the record being appended when the
// process died (or any later corruption) ends the parse at the last
// well-formed line instead of failing recovery.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fpm/internal/durable"
)

// Journal ops. "submitted" carries the request (the record recovery
// replays); "running" and "terminal" carry lifecycle evidence; "requeue"
// is a terminal written by a graceful drain that wants the job
// resubmitted on the next boot (rolling restarts keep their backlog).
const (
	JournalOpSubmitted = "submitted"
	JournalOpRunning   = "running"
	JournalOpTerminal  = "terminal"
	JournalOpRequeue   = "requeue"
)

// journalPrefix names the generation files in a state directory.
const journalPrefix = "jobs.journal."

// JournalRecord is one WAL line.
type JournalRecord struct {
	Op  string    `json:"op"`
	Job int       `json:"job"`
	TS  time.Time `json:"ts"`
	// State is the job's final state, on terminal records.
	State string `json:"state,omitempty"`
	// Recovered marks a submission that was itself a journal replay, so
	// operators can trace a job across restarts.
	Recovered bool `json:"recovered,omitempty"`
	// Req is the full request, on submitted records.
	Req *JobRequest `json:"req,omitempty"`
}

// Journal appends job state transitions to an NDJSON file. Appends never
// fail the caller: the first write error latches (Err reports it) and
// the journal degrades to a no-op — durability is an add-on, never the
// reason a mine fails.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
	err error
	// superseded lists the older generation files recovery read; retire
	// removes them. Written only before the journal is shared.
	superseded []string
}

// OpenJournalDir recovers the journal generations in dir and opens the
// next generation for appending. It returns the new journal and the
// requests a restarted server should resubmit: every job a generation
// journaled without a terminal record, plus every job explicitly
// requeued by a graceful drain — oldest generation first, FIFO within
// one, and deduped across generations by request and input identity
// (durable.FileIdentity), so the same request against the same file
// content recovers once however many crashed generations journaled it.
// The generations read stay on disk until Store.Resubmit retires them.
func OpenJournalDir(dir string) (*Journal, []JobRequest, error) {
	paths, maxGen := generations(dir)
	type recKey struct {
		req JobRequest
		id  string
	}
	seen := make(map[recKey]bool)
	var pending []JobRequest
	for _, path := range paths {
		recs, err := readJournal(path)
		if err != nil {
			continue
		}
		for _, req := range pendingRequests(recs) {
			key := recKey{req: req}
			if id, _, err := durable.FileIdentity(req.Path, false); err == nil {
				key.id = id.String()
			}
			if !seen[key] {
				seen[key] = true
				pending = append(pending, req)
			}
		}
	}
	j, err := openJournal(filepath.Join(dir, fmt.Sprintf("%s%d", journalPrefix, maxGen+1)))
	if err != nil {
		return nil, nil, err
	}
	j.superseded = paths
	return j, pending, nil
}

// generations lists dir's journal generation files in generation order
// and returns the highest generation number seen (0 when none).
func generations(dir string) (paths []string, maxGen int) {
	// An unreadable dir holds no generations; opening the next one then
	// reports why.
	entries, _ := os.ReadDir(dir)
	gen := make(map[string]int, len(entries))
	for _, e := range entries {
		suffix, ok := strings.CutPrefix(e.Name(), journalPrefix)
		n, err := strconv.Atoi(suffix)
		if !ok || err != nil || n < 0 {
			continue // not ours
		}
		path := filepath.Join(dir, e.Name())
		gen[path] = n
		paths = append(paths, path)
		maxGen = max(maxGen, n)
	}
	sort.Slice(paths, func(i, j int) bool { return gen[paths[i]] < gen[paths[j]] })
	return paths, maxGen
}

// openJournal opens (creating if needed) the journal at path for
// appending.
func openJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f, enc: json.NewEncoder(f)}, nil
}

// Append writes one record. Safe for concurrent use; errors latch
// silently (see Err).
func (j *Journal) Append(rec JournalRecord) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err := j.enc.Encode(rec); err != nil {
		j.err = err
	}
}

// Err reports the first append error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Sync flushes the journal file to stable storage.
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Sync()
}

// retire removes the generations this journal superseded, but only once
// its own records are on stable storage: after a failed sync the old
// generations are the only durable record of the jobs recovery replayed,
// so they stay for the next boot to replay again.
func (j *Journal) retire() {
	if j == nil || j.Sync() != nil {
		return
	}
	for _, path := range j.superseded {
		// A generation that survives is only replayed again next boot:
		// replay is at-least-once by design.
		_ = os.Remove(path)
	}
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// journalMaxLine bounds one record line when reading; anything longer is
// corruption (a real record is a few hundred bytes).
const journalMaxLine = 1 << 20

// readJournal parses the journal at path, tolerating a torn or corrupt
// tail: parsing stops at the first malformed line and the well-formed
// prefix is returned. The error is non-nil only when the file cannot be
// opened.
func readJournal(path string) ([]JournalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []JournalRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), journalMaxLine)
	for sc.Scan() {
		var rec JournalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			break // torn tail or corruption: keep the prefix
		}
		recs = append(recs, rec)
	}
	// A scanner error (line too long, read failure) also just ends the
	// prefix; recovery is best-effort.
	return recs, nil
}

// pendingRequests folds one journal's records into the requests a
// restarted server should resubmit: every submitted job without a
// terminal record, plus every job whose terminal record is an explicit
// requeue. Records with no replayable request (torn writes, hostile
// edits) are skipped.
func pendingRequests(recs []JournalRecord) []JobRequest {
	type lifeline struct {
		req      *JobRequest
		terminal bool
		requeue  bool
	}
	jobs := make(map[int]*lifeline)
	// First-seen order is submission order, so recovery resubmits FIFO
	// like the original queue.
	var ordered []*lifeline
	for _, rec := range recs {
		l := jobs[rec.Job]
		if l == nil {
			l = &lifeline{}
			jobs[rec.Job] = l
			ordered = append(ordered, l)
		}
		switch rec.Op {
		case JournalOpSubmitted:
			if rec.Req != nil {
				req := *rec.Req
				l.req = &req
			}
		case JournalOpTerminal:
			l.terminal = true
		case JournalOpRequeue:
			l.requeue = true
		}
	}
	pend := make([]JobRequest, 0)
	for _, l := range ordered {
		if l.req != nil && l.req.Path != "" && (!l.terminal || l.requeue) {
			pend = append(pend, *l.req)
		}
	}
	return pend
}

package telemetry

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
// Reading tolerates a torn tail: the record being appended when the
// process died (or any later corruption) ends the parse at the last
// well-formed line instead of failing recovery.

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
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
}

// OpenJournal opens (creating if needed) the journal at path for
// appending.
func OpenJournal(path string) (*Journal, error) {
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

// ReadJournal parses the journal at path, tolerating a torn or corrupt
// tail: parsing stops at the first malformed line and the well-formed
// prefix is returned. A missing file returns (nil, os.ErrNotExist-style
// error) — callers treat it as an empty journal.
func ReadJournal(path string) ([]JournalRecord, error) {
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

// PendingJob is one job a journal says was lost: submitted (or
// explicitly requeued by a graceful drain) without reaching a terminal
// state in that process.
type PendingJob struct {
	Req JobRequest
	// Requeued marks a job a graceful shutdown drained with the explicit
	// intent to resubmit (vs. one simply in flight at a crash).
	Requeued bool
}

// PendingRequests folds one journal's records into the jobs a restarted
// server should resubmit: every submitted job without a terminal record,
// plus every job whose terminal record is an explicit requeue. Records
// with no replayable request (torn writes, hostile edits) are skipped.
func PendingRequests(recs []JournalRecord) []PendingJob {
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
			l.terminal = true
			l.requeue = true
		}
	}
	pend := make([]PendingJob, 0)
	for _, l := range ordered {
		if l.req == nil || l.req.Path == "" {
			continue
		}
		if l.terminal && !l.requeue {
			continue
		}
		pend = append(pend, PendingJob{Req: *l.req, Requeued: l.requeue})
	}
	return pend
}

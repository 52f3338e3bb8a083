// Package fimi reads and writes the flat text format used by the FIMI'03/'04
// Frequent Itemset Mining Implementations workshops, the venue whose winning
// codes (LCM, FP-Growth, Eclat) the paper tunes. Each line is one
// transaction: whitespace-separated decimal item identifiers. Blank lines
// denote empty transactions and are preserved.
package fimi

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"fpm/internal/dataset"
	"fpm/internal/failpoint"
)

// MaxLineBytes is the largest transaction line the readers accept. Lines
// beyond it (16 MiB of text is far past any real FIMI dataset) indicate a
// file that is not line-structured FIMI at all, and are reported as a
// parse error rather than an opaque scanner failure.
const MaxLineBytes = 1 << 24

// Initial scanner buffer sizes; a buffer grows to MaxLineBytes for a long
// line either way. Read loads a whole file. The streaming readers keep
// their scanner for a pass beside memory-budgeted chunks, and a line is
// all a scanner must hold, so they start small.
const (
	readBufBytes   = 1 << 20
	streamBufBytes = 64 << 10
)

// newScanner returns a line scanner with the package's buffer policy,
// starting from a buffer of size bytes. The byte stream is routed through
// the fimi.read failpoint, so robustness tests can inject read errors and
// short reads under every reader in this package; with no failpoint armed
// the stream is passed through untouched.
func newScanner(r io.Reader, size int) *bufio.Scanner {
	sc := bufio.NewScanner(failpoint.WrapReader(failpoint.FimiRead, r))
	sc.Buffer(make([]byte, 0, size), MaxLineBytes)
	return sc
}

// scanErr converts a scanner failure into the package's error form. A
// bufio.ErrTooLong means the line after the last delivered one overflowed
// the buffer, so it is attributed to line lastLine+1 with an actionable
// message instead of the scanner's bare "token too long".
func scanErr(err error, lastLine int) error {
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("fimi: line %d: transaction line exceeds 16MiB (%w); input is not line-structured FIMI", lastLine+1, err)
	}
	return fmt.Errorf("fimi: %w", err)
}

// Read parses a FIMI-format stream into a database. Items may appear in any
// order and may repeat inside a line; the returned database is normalized
// (sorted, deduplicated transactions).
//
// Every line is parsed into one growing arena, as ReadChunksInto parses a
// chunk, so allocations grow with the logarithm of the input, not with its
// lines. The arena is then copied once to its exact size, and the rows are
// cut from the copy: a database that outlives the read (the serve dataset
// cache holds parsed ones) keeps no spare capacity.
func Read(r io.Reader) (*dataset.DB, error) {
	sc := newScanner(r, readBufBytes)
	var (
		arena []dataset.Item
		ends  []int32
		err   error
	)
	for sc.Scan() {
		b := sc.Bytes()
		// A line of n bytes holds at most (n+1)/2 items. Doubling the
		// arena whenever that might not fit keeps the discarded arenas,
		// together, smaller than the last one.
		if need := (len(b) + 1) / 2; cap(arena)-len(arena) < need {
			arena = append(make([]dataset.Item, 0, 2*cap(arena)+need), arena...)
		}
		if arena, err = parseLine(b, arena); err != nil {
			return nil, fmt.Errorf("fimi: line %d: %w", len(ends)+1, err)
		}
		ends = append(ends, int32(len(arena)))
	}
	if err := sc.Err(); err != nil {
		return nil, scanErr(err, len(ends))
	}
	items := make([]dataset.Item, len(arena))
	copy(items, arena)
	tx := make([]dataset.Transaction, len(ends))
	start := int32(0)
	for i, end := range ends {
		tx[i] = items[start:end:end]
		start = end
	}
	db := &dataset.DB{Tx: tx}
	db.NumItems = db.Normalize()
	return db, nil
}

// TransactionBytes estimates the resident size of one parsed transaction:
// its items (4 bytes each) plus the slice header and Tx entry overhead.
// ReadChunks sums it to honour a chunk byte budget; the same estimator
// applied to a whole database (see DBBytes) sizes the in-memory path.
func TransactionBytes(items int) int64 { return int64(items)*4 + 48 }

// DBBytes estimates the resident size of a parsed database under the same
// accounting ReadChunks uses for its budget.
func DBBytes(db *dataset.DB) int64 {
	var n int64
	for _, t := range db.Tx {
		n += TransactionBytes(len(t))
	}
	return n
}

// ReadChunks streams a FIMI file as a sequence of bounded databases: each
// chunk holds consecutive transactions whose estimated resident size (see
// TransactionBytes) stays within budget, and is normalized exactly like
// Read's output before fn sees it. A chunk always holds at least one
// transaction, so a non-positive or undersized budget degrades to
// one-transaction chunks rather than failing. Chunk NumItems is local to
// the chunk's own alphabet; concatenating the chunks' transactions yields
// exactly the database Read returns on the same input (FuzzReadChunks
// asserts this). fn must not retain the chunk or any of its transactions —
// the chunk database and the arena backing its items are reused for the
// next chunk, which keeps steady-state streaming at zero allocations per
// chunk (the arena grows to the largest chunk once, then every later chunk
// is parsed into it in place; TestReadChunksAllocs asserts this). A
// non-nil error from fn aborts the stream and is returned verbatim; chunks
// already delivered stay delivered.
func ReadChunks(r io.Reader, budget int64, fn func(chunk *dataset.DB) error) error {
	var c Chunk
	next := func() (*Chunk, error) { return &c, nil }
	return ReadChunksInto(r, budget, 0, next, func(c *Chunk) error {
		c.Normalize()
		return fn(&c.DB)
	})
}

// Chunk is a reusable chunk buffer: the chunk database and the item arena
// backing its transactions. The zero value is ready to use; a recycled
// buffer's arena and transaction table are reused in place.
type Chunk struct {
	DB    dataset.DB
	arena []dataset.Item
}

// Normalize sorts and deduplicates the chunk's transactions and sets its
// NumItems to one past its largest item, as Read normalizes a database.
func (c *Chunk) Normalize() {
	c.DB.NumItems = c.DB.Normalize()
}

// ReadChunksInto is ReadChunks over buffers the caller recycles, so
// chunks can be consumed while the next one is parsed, starting after the
// first skipTx transactions. next supplies the buffer each chunk is parsed
// into, straight into its arena — it may block until the caller frees
// one, and a non-nil error from it aborts the stream. fn receives each
// filled buffer as parsed — items in line order, repeats kept, NumItems
// unset — and owns it until the caller hands it out through next again;
// Chunk.Normalize turns it into what ReadChunks delivers, on whichever
// goroutine the caller chooses. The reader touches a buffer only between
// next returning it and fn receiving it; a transaction carried over a
// chunk boundary is copied from the previous buffer's arena, past its
// chunk, into the next one.
//
// The skipped lines are scanned (so malformed framing still surfaces) but
// never parsed, and chunking begins at transaction skipTx with an empty
// accumulator. Chunk boundaries depend only on the starting transaction
// and the budget — the size estimator sees the raw token count of each
// line, and which buffers next returns changes where transactions live,
// never how they are framed — so resuming at a boundary recorded by a
// checkpoint reproduces exactly the chunks a clean run would have
// produced from that point. Skipping past the end of the stream yields no
// chunks and no error. A single buffer returned every time, normalized in
// fn, is ReadChunks.
func ReadChunksInto(r io.Reader, budget int64, skipTx int, next func() (*Chunk, error), fn func(*Chunk) error) error {
	sc := newScanner(r, streamBufBytes)
	var (
		cur  *Chunk // the buffer being filled
		size int64
		line int
	)
	// take makes a buffer from next the one being filled, with carry — a
	// parsed transaction that did not fit the previous chunk — at the
	// front of its arena. carry still sits in the previous buffer's arena
	// (past its chunk, so the consumer never reads it) or, when next
	// returned the same buffer, in this one: append copies overlap-safely.
	take := func(carry dataset.Transaction) (dataset.Transaction, error) {
		nb, err := next()
		if err != nil {
			return nil, err
		}
		nb.DB.Tx, nb.arena = nb.DB.Tx[:0], append(nb.arena[:0], carry...)
		cur, size = nb, 0
		return nb.arena[:len(carry):len(carry)], nil
	}
	for sc.Scan() {
		line++
		if line <= skipTx {
			continue
		}
		if cur == nil {
			if _, err := take(nil); err != nil {
				return err
			}
		}
		start := len(cur.arena)
		var err error
		if cur.arena, err = parseLine(sc.Bytes(), cur.arena); err != nil {
			return fmt.Errorf("fimi: line %d: %w", line, err)
		}
		// Three-index slice: the transaction must stay fixed to its arena
		// region even if a later line regrows the arena (regrowth leaves
		// already-taken sub-slices valid on the old backing array).
		t := cur.arena[start:len(cur.arena):len(cur.arena)]
		if est := TransactionBytes(len(t)); size+est > budget && len(cur.DB.Tx) > 0 {
			if err := fn(cur); err != nil {
				return err
			}
			// Carry t into the next chunk, at its arena front, so an arena
			// never grows beyond one chunk.
			if t, err = take(t); err != nil {
				return err
			}
		}
		cur.DB.Tx = append(cur.DB.Tx, t)
		size += TransactionBytes(len(t))
	}
	if err := sc.Err(); err != nil {
		return scanErr(err, line)
	}
	if cur == nil || len(cur.DB.Tx) == 0 {
		return nil
	}
	return fn(cur)
}

// CountTransactions counts the transactions (lines) of a FIMI stream
// without parsing them — the parse-free sizing scan the out-of-core miner
// runs before its first mining pass (SON partition scaling needs the total
// transaction count up front). It counts exactly the lines Read would
// parse, including blank lines and an unterminated final line.
func CountTransactions(r io.Reader) (int, error) {
	sc := newScanner(r, streamBufBytes)
	n := 0
	for sc.Scan() {
		n++
	}
	if err := sc.Err(); err != nil {
		return 0, scanErr(err, n)
	}
	return n, nil
}

// parseLine converts one whitespace-separated line into a transaction,
// appending the parsed items to t (which may be nil, or a caller-owned
// scratch buffer — the streaming reader passes its chunk arena). The
// success path performs zero allocations: tokens are parsed digit-by-digit
// in place instead of through strconv.ParseInt, whose string(...) argument
// escapes every token to the heap.
//
// Each byte is read once: digits accumulate into the current item and a
// space ends it. Any other byte (a sign, a letter) or a value past
// MaxInt32 drops what this call appended and hands the whole line to
// parseLineSlow, which owns every accept/reject rule and error message.
func parseLine(b []byte, t dataset.Transaction) (dataset.Transaction, error) {
	n0 := len(t)
	var v uint64
	in := false // a token is open
	for _, c := range b {
		if d := c - '0'; d <= 9 {
			v = v*10 + uint64(d)
			if v > 1<<31-1 {
				return parseLineSlow(b, t[:n0])
			}
			in = true
			continue
		}
		if !isSpace(c) {
			return parseLineSlow(b, t[:n0])
		}
		if in {
			t = append(t, dataset.Item(v))
			v, in = 0, false
		}
	}
	if in {
		t = append(t, dataset.Item(v))
	}
	return t, nil
}

// parseLineSlow is parseLine token by token: each whitespace-separated
// token goes through parseItem, which accepts signs and reports why a
// token is rejected.
func parseLineSlow(b []byte, t dataset.Transaction) (dataset.Transaction, error) {
	i := 0
	for i < len(b) {
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i >= len(b) {
			break
		}
		start := i
		for i < len(b) && !isSpace(b[i]) {
			i++
		}
		v, err := parseItem(b[start:i])
		if err != nil {
			return nil, err
		}
		t = append(t, v)
	}
	return t, nil
}

// parseItem parses one decimal token with exactly the accept/reject
// behaviour of strconv.ParseInt(tok, 10, 32) followed by a v >= 0 check
// (the reference parse FuzzParseFIMI compares against): an optional sign,
// then one or more ASCII digits, value within int32. "-0" is item 0; any
// other negative, and anything past MaxInt32, is rejected.
func parseItem(b []byte) (dataset.Item, error) {
	s := b
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, fmt.Errorf("bad item %q: not a decimal integer", b)
	}
	var v uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad item %q: not a decimal integer", b)
		}
		v = v*10 + uint64(c-'0')
		if v > 1<<31 { // beyond |MinInt32|: invalid whatever the sign
			return 0, fmt.Errorf("bad item %q: out of int32 range", b)
		}
	}
	if neg {
		if v != 0 {
			return 0, fmt.Errorf("negative item -%d", v)
		}
		return 0, nil
	}
	if v > 1<<31-1 {
		return 0, fmt.Errorf("bad item %q: out of int32 range", b)
	}
	return dataset.Item(v), nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// Write emits the database in FIMI format, one transaction per line.
func Write(w io.Writer, db *dataset.DB) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, t := range db.Tx {
		buf = buf[:0]
		for i, it := range t {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendInt(buf, int64(it), 10)
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("fimi: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("fimi: %w", err)
	}
	return nil
}

// ReadFile loads a FIMI file from disk.
func ReadFile(path string) (*dataset.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fimi: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// WriteFile stores the database to disk in FIMI format.
func WriteFile(path string, db *dataset.DB) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("fimi: %w", err)
	}
	if err := Write(f, db); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("fimi: %w", err)
	}
	return nil
}

package fimi

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"fpm/internal/dataset"
)

// FuzzRead exercises the FIMI parser with arbitrary byte input: it must
// never panic, and on success the parsed database must validate and
// round-trip through Write/Read to the identical normalized form.
// (Runs its seed corpus under plain `go test`; explore further with
// `go test -fuzz=FuzzRead ./internal/fimi`.)
// FuzzParseFIMI targets the single-line tokenizer directly — the layer
// below FuzzRead, so crashes localize to parseLine rather than the scanner
// or normalization. parseLine must never panic, and its output is checked
// against an independent reference parse (strings.Fields + ParseInt): the
// two must agree on success/failure and, on success, on every item value.
// parseLine appends to a scratch row that already holds items, as the
// readers' arenas do, so a line that falls back to the slow path part-way
// must leave those items alone and add each of its own exactly once.
// A checked-in seed corpus lives in testdata/fuzz/FuzzParseFIMI; explore
// further with `go test -fuzz=FuzzParseFIMI ./internal/fimi`.
func FuzzParseFIMI(f *testing.F) {
	seeds := []string{
		"",
		"1 2 3",
		"0",
		"  42\t7  \r",
		"2147483647",
		"2147483648", // overflows int32: must error, not wrap
		"-5",
		"1.5",
		"12x",
		"\x00",
		strings.Repeat("9 ", 500),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if bytes.ContainsRune(line, '\n') {
			// parseLine's contract is a single scanner line.
			return
		}
		held := dataset.Transaction{11, 3}
		got, err := parseLine(line, append(make(dataset.Transaction, 0, 4), held...))

		// Reference parse. strings.Fields splits on unicode whitespace;
		// restrict it to parseLine's space set so tokenization matches.
		fields := strings.FieldsFunc(string(line), func(r rune) bool {
			return r == ' ' || r == '\t' || r == '\r'
		})
		var want []int64
		wantErr := false
		for _, fd := range fields {
			v, perr := strconv.ParseInt(fd, 10, 32)
			if perr != nil || v < 0 {
				wantErr = true
				break
			}
			want = append(want, v)
		}

		if wantErr {
			if err == nil {
				t.Fatalf("parseLine(%q) accepted a line the reference parse rejects: %v", line, got)
			}
			return
		}
		if err != nil {
			t.Fatalf("parseLine(%q) rejected a valid line: %v", line, err)
		}
		if len(got) < len(held) || got[0] != held[0] || got[1] != held[1] {
			t.Fatalf("parseLine(%q) overwrote the items it was given: %v", line, got)
		}
		got = got[len(held):]
		if len(got) != len(want) {
			t.Fatalf("parseLine(%q): %d items, reference %d", line, len(got), len(want))
		}
		for i := range got {
			if int64(got[i]) != want[i] {
				t.Fatalf("parseLine(%q): item %d = %d, reference %d", line, i, got[i], want[i])
			}
		}
	})
}

// FuzzReadChunks is the out-of-core reader's equivalence oracle: for
// arbitrary byte input and arbitrary (including non-positive) chunk
// budgets, ReadChunks must fail exactly when Read fails, and on success
// the concatenation of its chunks — transactions in order, alphabet the
// maximum over chunks — must reproduce Read's database bit for bit. This
// is the property the partitioned miner's correctness rests on: chunking
// may split the file anywhere at transaction granularity but must never
// drop, duplicate, reorder or renormalize a transaction. A checked-in
// seed corpus lives in testdata/fuzz/FuzzReadChunks; explore further with
// `go test -fuzz=FuzzReadChunks ./internal/fimi`.
func FuzzReadChunks(f *testing.F) {
	seeds := []struct {
		data   string
		budget int64
	}{
		{"", 64},
		{"1 2 3\n4 5\n", 1},
		{"1 2 3\n4 5\n", 0},
		{"1 2 3\n4 5\n", -7},
		{"3 1 3 2\n\n7\n6 0\n", 52},
		{"0\n0 0 0\n", 1 << 30},
		{"9 8\n-1\n", 64},
		{"1 2\n\n\n3", 50},
		{strings.Repeat("5 6 7\n", 40), 100},
	}
	for _, s := range seeds {
		f.Add([]byte(s.data), s.budget)
	}
	f.Fuzz(func(t *testing.T, data []byte, budget int64) {
		want, wantErr := Read(bytes.NewReader(data))

		var gotTx [][]int32
		gotItems := 0
		err := ReadChunks(bytes.NewReader(data), budget, func(chunk *dataset.DB) error {
			if chunk.Len() == 0 {
				t.Fatal("empty chunk delivered")
			}
			if chunk.NumItems > gotItems {
				gotItems = chunk.NumItems
			}
			for _, tr := range chunk.Tx {
				gotTx = append(gotTx, append([]int32(nil), tr...))
			}
			return nil
		})

		if wantErr != nil {
			if err == nil {
				t.Fatalf("Read rejects %q (%v) but ReadChunks accepted it", data, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("Read accepts %q but ReadChunks failed: %v", data, err)
		}
		if len(gotTx) != want.Len() {
			t.Fatalf("chunks concatenate to %d transactions, Read has %d", len(gotTx), want.Len())
		}
		for i, tr := range want.Tx {
			if len(gotTx[i]) != len(tr) {
				t.Fatalf("transaction %d: %v vs %v", i, gotTx[i], tr)
			}
			for j := range tr {
				if gotTx[i][j] != tr[j] {
					t.Fatalf("transaction %d item %d: %d vs %d", i, j, gotTx[i][j], tr[j])
				}
			}
		}
		if gotItems != want.NumItems {
			t.Fatalf("max chunk alphabet %d, Read alphabet %d", gotItems, want.NumItems)
		}
	})
}

func FuzzRead(f *testing.F) {
	seeds := []string{
		"",
		"\n",
		"1 2 3\n4 5\n",
		"0\n0 0 0\n",
		"  7\t8  \r\n",
		"999999999999999999999\n",
		"-1\n",
		"a b c\n",
		"1 2\n\n\n3\n",
		strings.Repeat("1 ", 1000) + "\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Read(bytes.NewReader(data))
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		if verr := db.Validate(); verr != nil {
			t.Fatalf("parsed database invalid: %v", verr)
		}
		var buf bytes.Buffer
		if werr := Write(&buf, db); werr != nil {
			t.Fatalf("re-encode failed: %v", werr)
		}
		back, rerr := Read(&buf)
		if rerr != nil {
			t.Fatalf("re-parse failed: %v", rerr)
		}
		if back.Len() != db.Len() {
			t.Fatalf("round trip changed length: %d vs %d", back.Len(), db.Len())
		}
		for i := range db.Tx {
			if len(back.Tx[i]) != len(db.Tx[i]) {
				t.Fatalf("transaction %d changed", i)
			}
			for j := range db.Tx[i] {
				if back.Tx[i][j] != db.Tx[i][j] {
					t.Fatalf("transaction %d item %d changed", i, j)
				}
			}
		}
	})
}

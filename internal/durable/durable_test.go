package durable

import (
	"bytes"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var errTestCorrupt = errors.New("test: corrupt")

var testFormat = Format{Magic: "TEST", Version: 3, Corrupt: errTestCorrupt}

func TestFrameRoundTripAndRejections(t *testing.T) {
	e := testFormat.NewEncoder()
	e.Varint(-5)
	e.Uvarint(1 << 40)
	e.String("kernel")
	frame := e.Seal()

	d, err := testFormat.Open(frame)
	if err != nil {
		t.Fatal(err)
	}
	if v, u, s := d.Varint(), d.Uvarint(), d.String(); v != -5 || u != 1<<40 || s != "kernel" || d.Err() != nil || d.Len() != 0 {
		t.Fatalf("round trip = %d %d %q (err %v, %d left)", v, u, s, d.Err(), d.Len())
	}

	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 1
	cases := map[string]struct {
		data []byte
		want string
	}{
		"short":   {frame[:8], "file shorter than header"},
		"magic":   {append([]byte("JUNK"), frame[4:]...), "bad magic"},
		"version": {append([]byte("TEST\x04"), frame[5:]...), "unsupported version 4"},
		"crc":     {flipped, "payload CRC mismatch"},
	}
	for name, c := range cases {
		_, err := testFormat.Open(c.data)
		if !errors.Is(err, errTestCorrupt) || !strings.HasSuffix(err.Error(), ": "+c.want) {
			t.Errorf("%s: error %v, want %q wrapping the format sentinel", name, err, c.want)
		}
	}
}

// After the first bad value every read returns zero and Err stays set,
// and a string longer than the payload is refused before allocation.
func TestDecoderStickyError(t *testing.T) {
	d := &Decoder{buf: []byte{0x80}} // a varint continuation with no end
	if v := d.Uvarint(); v != 0 || d.Err() == nil {
		t.Fatalf("truncated uvarint = %d, err %v", v, d.Err())
	}
	d.buf = []byte{0x02}
	if v := d.Varint(); v != 0 {
		t.Fatalf("read after error = %d, want 0", v)
	}

	d = &Decoder{buf: []byte{0x05, 'a', 'b'}}
	if s := d.String(); s != "" || d.Err() == nil {
		t.Fatalf("overlong string = %q, err %v", s, d.Err())
	}
}

func TestWriteFileReplacesAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := WriteFile(path, []byte("one"), nil); err != nil {
		t.Fatal(err)
	}

	// A declined commit leaves the previous file and no temp file.
	declined := errors.New("raced")
	err := WriteFile(path, []byte("two"), func(rename func() error) error { return declined })
	if err != declined {
		t.Fatalf("declined commit returned %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "one" {
		t.Fatalf("declined commit changed the file to %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}

	// The commit hook runs the rename that publishes the new bytes.
	if err := WriteFile(path, []byte("three"), func(rename func() error) error { return rename() }); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "three" {
		t.Fatalf("committed write left %q", got)
	}

	if err := WriteFile(filepath.Join(dir, "missing", "state"), []byte("x"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// The full hash comes from the same read as the prefix identity, and it
// sees the edit past the prefix that the identity cannot.
func TestFileIdentityFullHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.dat")
	buf := bytes.Repeat([]byte("1 2 3\n"), (PrefixBytes+4096)/6)
	pin := time.Unix(1700000000, 0)
	write := func() {
		t.Helper()
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, pin, pin); err != nil {
			t.Fatal(err)
		}
	}
	write()
	id, none, err := FileIdentity(path, false)
	if err != nil || none != 0 {
		t.Fatalf("prefix identity: full hash %x, err %v", none, err)
	}
	idFull, full, err := FileIdentity(path, true)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf)
	if idFull != id || full != h.Sum64() {
		t.Fatalf("combined read = %s/%x, want %s/%x", idFull, full, id, h.Sum64())
	}

	buf[len(buf)-2] = '9' // same size, same prefix, same mtime
	write()
	idAfter, fullAfter, err := FileIdentity(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if idAfter != id || fullAfter == full {
		t.Fatalf("tail edit: identity %s (was %s), full hash %x (was %x)", idAfter, id, fullAfter, full)
	}
}

// Package durable owns the on-disk decisions shared by the repository's
// sidecar files — the FPCK out-of-core checkpoints (internal/partition)
// and the FPRS result-cache snapshots (internal/servecache):
//
//   - one frame: magic | version byte | CRC32-IEEE(payload) little-endian
//     | payload, decoded with every malformation wrapped in the format's
//     own corruption sentinel;
//   - one payload codec: uvarints, zig-zag varints and length-prefixed
//     strings, read back through a sticky-error decoder;
//   - one atomic writer: path+".tmp", fsync, rename, with a commit hook
//     for callers that must order the rename against their own state;
//   - one input-file identity: size, FNV-64a of the first 64 KiB and
//     mtime, plus the full-content FNV-64a when asked, from one read.
//
// Each format keeps its payload layout, magic, version and sentinel; the
// hostile-input checks that need to understand a payload stay with it.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
)

// Format names one framed file format.
type Format struct {
	Magic   string
	Version byte
	// Corrupt is the sentinel every rejection of this format wraps.
	Corrupt error
}

// headerLen is the frame prefix before the payload: magic, version, CRC.
func (f Format) headerLen() int { return len(f.Magic) + 1 + 4 }

// Reject returns an error wrapping f.Corrupt that says what was wrong.
func (f Format) Reject(what string) error {
	return fmt.Errorf("%w: %s", f.Corrupt, what)
}

// NewEncoder starts a frame of this format. The header is reserved up
// front and the CRC stamped by Seal, so the payload is never copied.
func (f Format) NewEncoder() *Encoder {
	buf := make([]byte, f.headerLen())
	copy(buf, f.Magic)
	buf[len(f.Magic)] = f.Version
	return &Encoder{buf: buf, hdr: len(buf)}
}

// Open validates data's frame — length, magic, version, CRC — and returns
// a Decoder over the payload. Failures wrap f.Corrupt.
func (f Format) Open(data []byte) (*Decoder, error) {
	if len(data) < f.headerLen() {
		return nil, f.Reject("file shorter than header")
	}
	if string(data[:len(f.Magic)]) != f.Magic {
		return nil, f.Reject("bad magic")
	}
	if v := data[len(f.Magic)]; v != f.Version {
		return nil, f.Reject(fmt.Sprintf("unsupported version %d", v))
	}
	pay := data[f.headerLen():]
	if crc32.ChecksumIEEE(pay) != binary.LittleEndian.Uint32(data[len(f.Magic)+1:]) {
		return nil, f.Reject("payload CRC mismatch")
	}
	return &Decoder{buf: pay}, nil
}

// Encoder appends a payload to a reserved frame header.
type Encoder struct {
	buf []byte
	hdr int
}

// Uvarint appends v as an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends v as a zig-zag signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// String appends s as a uvarint length followed by its bytes.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Seal stamps the payload CRC into the header and returns the frame.
func (e *Encoder) Seal() []byte {
	binary.LittleEndian.PutUint32(e.buf[e.hdr-4:], crc32.ChecksumIEEE(e.buf[e.hdr:]))
	return e.buf
}

var errTruncated = errors.New("durable: truncated or overlong value")

// Decoder reads a payload written by Encoder. Errors are sticky: after the
// first truncated or overlong value every read returns zero and Err
// reports the failure, so a decoder checks once per group of fields.
type Decoder struct {
	buf []byte
	err error
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// String reads a length-prefixed string. A length beyond the remaining
// payload is an error, checked before anything is allocated.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.err = errTruncated
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// Len returns the unread payload bytes: the bound a decoder checks any
// claimed element count against before allocating.
func (d *Decoder) Len() int { return len(d.buf) }

// Err returns the first read error, if any.
func (d *Decoder) Err() error { return d.err }

// WriteFile atomically replaces path with data. It writes path+".tmp",
// fsyncs and closes it, then calls commit with the rename that publishes
// it; a nil commit renames straight away. commit lets a caller take a lock
// around the rename or decline it by returning an error without calling
// rename. On any failure the temp file is removed, so a crash or a
// refused commit leaves the previous file intact, never a torn one.
func WriteFile(path string, data []byte, commit func(rename func() error) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		rename := func() error { return os.Rename(tmp, path) }
		if commit == nil {
			err = rename()
		} else {
			err = commit(rename)
		}
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// PrefixBytes is how much of a file the identity hash covers. The prefix
// plus the exact size and mtime catches every realistic mismatch
// (different file, appended rows, re-sorted rows, an in-place edit) for
// the cost of one 64 KiB read instead of a full extra pass.
const PrefixBytes = 64 << 10

// Identity fingerprints one input file: its exact byte size, the FNV-64a
// hash of its first PrefixBytes, and its modification time in UnixNano.
// The mtime closes the in-place-edit hole a prefix hash leaves open. What
// remains is the collision window of any prefix scheme: two files that
// differ only past the prefix with identical size and mtime (restored by
// Chtimes, say). The full-content hash FileIdentity can return closes it
// where a stale answer would outlive the process. Identity is comparable
// and usable as a map key.
type Identity struct {
	Size    int64
	Hash    uint64
	ModTime int64
}

// String renders the identity for logs and dedupe keys.
func (id Identity) String() string {
	return fmt.Sprintf("%d:%016x:%d", id.Size, id.Hash, id.ModTime)
}

// FileIdentity computes the identity of the file at path. With full set it
// also returns the FNV-64a of the whole content, hashed in the same read;
// otherwise it reads at most PrefixBytes and fullHash is 0. The file is
// stat'ed after the read, so a write racing the hash moves the mtime past
// the one recorded and the identity stops matching one taken before it.
func FileIdentity(path string, full bool) (id Identity, fullHash uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return Identity{}, 0, err
	}
	defer f.Close()
	prefix, whole := fnv.New64a(), fnv.New64a()
	var w io.Writer = prefix
	if full {
		w = io.MultiWriter(prefix, whole)
	}
	if _, err := io.Copy(w, io.LimitReader(f, PrefixBytes)); err != nil {
		return Identity{}, 0, err
	}
	if full {
		if _, err := io.Copy(whole, f); err != nil {
			return Identity{}, 0, err
		}
		fullHash = whole.Sum64()
	}
	fi, err := f.Stat()
	if err != nil {
		return Identity{}, 0, err
	}
	return Identity{Size: fi.Size(), Hash: prefix.Sum64(), ModTime: fi.ModTime().UnixNano()}, fullHash, nil
}

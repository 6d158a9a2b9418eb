// Package journal is the control plane's write-ahead log: an append-only
// record file that survives a SIGKILL at any byte. The fleet campaign
// server writes a record through the journal on every state transition and
// replays the file on startup, so a control-plane crash orphans nothing —
// a campaign interrupted mid-run resumes from its last journaled shard.
//
// File format (all integers little-endian):
//
//	header  magic "TSCJ", version u16 (1)
//	record  length u32 (payload bytes), type u8, payload, crc u32
//	        (IEEE CRC-32 of the record's length+type+payload bytes)
//	...     records repeat to end of file
//
// Parsing is strict and canonical: a record's only valid encoding is the
// one Append writes, every declared length is validated against MaxRecord
// and the remaining file before any allocation, and Parse re-encodes to
// the identical bytes (the fuzz harness pins this). Recovery is torn-tail
// tolerant: a crash mid-append leaves a truncated or CRC-broken final
// frame, which Open discards and truncates away so the journal is again
// append-clean. Records carry no wall-clock timestamps — replaying a
// journal is a pure function of its bytes.
//
// Durability model: appends reach the OS page cache, not stable storage
// (no fsync) — the journal survives process death (kill -9) on a healthy
// machine, which is the failure the control plane models; power-loss
// durability would need Sync batching and is out of scope.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

const (
	magic   = "TSCJ"
	version = 1

	// headerLen is the fixed file prelude: magic + version.
	headerLen = 6
	// frameOverhead is a record's framing cost: length u32 + type u8 +
	// crc u32.
	frameOverhead = 9

	// MaxRecord bounds one record's payload. Campaign `done` records carry
	// a full per-node result set (a 65000-node fleet marshals to tens of
	// MB), so the cap is generous; it exists so a corrupt length field
	// cannot demand an absurd allocation.
	MaxRecord = 1 << 26
)

// Record is one journaled entry: an application-defined type tag and an
// opaque payload. The journal never interprets payloads.
type Record struct {
	Type uint8
	Data []byte
}

// AppendFrame appends r's canonical wire encoding to buf and returns the
// extended slice. It is the only encoding Parse accepts.
func AppendFrame(buf []byte, r Record) ([]byte, error) {
	if len(r.Data) > MaxRecord {
		return buf, fmt.Errorf("journal: %d-byte record exceeds the %d cap", len(r.Data), MaxRecord)
	}
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Data)))
	buf = append(buf, r.Type)
	buf = append(buf, r.Data...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:])), nil
}

// Header returns the canonical file prelude.
func Header() []byte {
	out := make([]byte, 0, headerLen)
	out = append(out, magic...)
	return binary.LittleEndian.AppendUint16(out, version)
}

// Parse validates data as a journal file and returns its records plus the
// byte length of the accepted prefix. A malformed header is an error; a
// malformed record is not — parsing stops there and good reports how many
// bytes were accepted, so a torn tail (crash mid-append) recovers to the
// last complete record. Payload slices are copies; data is not retained.
func Parse(data []byte) (recs []Record, good int, err error) {
	if len(data) < headerLen || string(data[:4]) != magic {
		return nil, 0, fmt.Errorf("journal: bad magic")
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != version {
		return nil, 0, fmt.Errorf("journal: version %d, want %d", v, version)
	}
	off := headerLen
	for {
		rec, n, ok := parseFrame(data[off:])
		if !ok {
			return recs, off, nil
		}
		recs = append(recs, rec)
		off += n
	}
}

// parseFrame decodes one record from the front of b, reporting its full
// frame length. ok is false for a truncated, oversized, or CRC-broken
// frame. The payload length is validated against both MaxRecord and the
// bytes actually present before the copy is allocated.
func parseFrame(b []byte) (rec Record, n int, ok bool) {
	if len(b) < frameOverhead {
		return rec, 0, false
	}
	pl := int(binary.LittleEndian.Uint32(b))
	if pl > MaxRecord || pl > len(b)-frameOverhead {
		return rec, 0, false
	}
	n = frameOverhead + pl
	want := binary.LittleEndian.Uint32(b[n-4:])
	if crc32.ChecksumIEEE(b[:n-4]) != want {
		return rec, 0, false
	}
	rec = Record{Type: b[4], Data: append([]byte(nil), b[5:5+pl]...)}
	return rec, n, true
}

// Journal is an open journal file positioned for appends. Methods are not
// safe for concurrent use; the owning server serializes access.
type Journal struct {
	path string
	f    *os.File
	// size is the accepted file length — the offset every append lands at.
	size   int64
	closed bool
}

// Open reads, validates, and truncates the journal at path, returning the
// replayable records and the journal opened for append. A missing file is
// created empty. A torn or corrupt tail is discarded by truncating the
// file to its accepted prefix, so the next append writes a clean frame;
// only a malformed header (wrong magic or version) is an error.
func Open(path string) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if info.Size() == 0 {
		hdr := Header()
		if _, err := f.Write(hdr); err != nil {
			f.Close()
			return nil, nil, err
		}
		return &Journal{path: path, f: f, size: int64(len(hdr))}, nil, nil
	}

	data := make([]byte, info.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	recs, good, err := Parse(data)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %s: %w", path, err)
	}
	if int64(good) != info.Size() {
		// Torn tail: drop the partial frame so appends start clean.
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return &Journal{path: path, f: f, size: int64(good)}, recs, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append writes one record through to the file. On a write error the
// in-memory offset is left at the last fully accepted frame, so recovery
// (and the torn-tail logic of the next Open) see a consistent prefix.
func (j *Journal) Append(r Record) error {
	if j.closed {
		return fmt.Errorf("journal: append to closed journal %s", j.path)
	}
	frame, err := AppendFrame(nil, r)
	if err != nil {
		return err
	}
	n, err := j.f.WriteAt(frame, j.size)
	if err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(n)
	return nil
}

// Compact atomically replaces the journal's contents with the given
// records: the snapshot is written to a sibling temp file and renamed into
// place, so a crash at any point leaves either the old journal or the new
// one, never a mix. The journal stays open for appends afterward.
func (j *Journal) Compact(recs []Record) error {
	if j.closed {
		return fmt.Errorf("journal: compact of closed journal %s", j.path)
	}
	size := headerLen
	for _, r := range recs {
		size += frameOverhead + len(r.Data)
	}
	out := append(make([]byte, 0, size), Header()...)
	for _, r := range recs {
		var err error
		if out, err = AppendFrame(out, r); err != nil {
			return err
		}
	}
	tmp := j.path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	nf, err := os.OpenFile(tmp, os.O_RDWR, 0o644)
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	j.f.Close()
	j.f = nf
	j.size = int64(len(out))
	return nil
}

// Close releases the file. Further appends fail; Close is idempotent.
func (j *Journal) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

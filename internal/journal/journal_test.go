package journal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, path string) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

func reencode(t *testing.T, recs []Record) []byte {
	t.Helper()
	out := Header()
	for _, r := range recs {
		var err error
		if out, err = AppendFrame(out, r); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestAppendReopenReplaysIdentically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, recs := openT(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{
		{Type: 1, Data: []byte(`{"id":"c1"}`)},
		{Type: 2, Data: nil},
		{Type: 3, Data: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got := openT(t, path)
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("record %d: got type %d len %d", i, got[i].Type, len(got[i].Data))
		}
	}
	// The file is exactly the canonical re-encoding of its records.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, reencode(t, got)) {
		t.Error("file bytes differ from the canonical re-encoding")
	}
}

// TestTornTailRecovery simulates a SIGKILL mid-append at every byte of the
// final frame: Open must recover the intact prefix, truncate the tail, and
// accept new appends cleanly.
func TestTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, _ := openT(t, path)
	if err := j.Append(Record{Type: 1, Data: []byte("first")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: 2, Data: []byte("second-record-payload")}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame1, _ := AppendFrame(nil, Record{Type: 1, Data: []byte("first")})
	intact := headerLen + len(frame1)

	for cut := intact + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs := openT(t, path)
		if len(recs) != 1 || recs[0].Type != 1 {
			t.Fatalf("cut %d: recovered %d records", cut, len(recs))
		}
		if err := j.Append(Record{Type: 9, Data: []byte("post-crash")}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		j.Close()
		_, recs = openT(t, path)
		if len(recs) != 2 || recs[1].Type != 9 {
			t.Fatalf("cut %d: post-recovery journal replayed %d records", cut, len(recs))
		}
	}
}

func TestCorruptTailBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, _ := openT(t, path)
	if err := j.Append(Record{Type: 1, Data: []byte("keep")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: 2, Data: []byte("doomed")}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, _ := os.ReadFile(path)
	data[len(data)-6] ^= 0x40 // flip a bit inside the last frame
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs := openT(t, path)
	defer j.Close()
	if len(recs) != 1 || string(recs[0].Data) != "keep" {
		t.Fatalf("recovered %d records", len(recs))
	}
}

func TestHostileLengthRejectedBeforeAllocation(t *testing.T) {
	// A frame declaring a huge payload must stop the parse (treated as a
	// torn tail), not allocate.
	buf := Header()
	buf = binary.LittleEndian.AppendUint32(buf, 1<<31-1)
	buf = append(buf, 7)
	buf = append(buf, bytes.Repeat([]byte{0}, 64)...)
	recs, good, err := Parse(buf)
	if err != nil || len(recs) != 0 || good != headerLen {
		t.Fatalf("recs=%d good=%d err=%v", len(recs), good, err)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("TSC"),
		[]byte("TSIQ\x01\x00"),
		append([]byte(magic), 0xFF, 0x00), // version 255
	} {
		if _, _, err := Parse(data); err == nil {
			t.Errorf("Parse(%q) accepted a bad header", data)
		}
	}
	path := filepath.Join(t.TempDir(), "bad.journal")
	if err := os.WriteFile(path, []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil {
		t.Error("Open accepted a bad header")
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, _ := openT(t, path)
	defer j.Close()
	if err := j.Append(Record{Type: 1, Data: make([]byte, MaxRecord+1)}); err == nil {
		t.Error("append accepted a record over MaxRecord")
	}
}

func TestCompactRewritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, _ := openT(t, path)
	for i := 0; i < 10; i++ {
		if err := j.Append(Record{Type: 3, Data: []byte("shard")}); err != nil {
			t.Fatal(err)
		}
	}
	snap := []Record{{Type: 4, Data: []byte("terminal")}}
	if err := j.Compact(snap); err != nil {
		t.Fatal(err)
	}
	// The journal stays appendable after the rename swap.
	if err := j.Append(Record{Type: 1, Data: []byte("after")}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, recs := openT(t, path)
	if len(recs) != 2 || recs[0].Type != 4 || recs[1].Type != 1 {
		t.Fatalf("compacted journal replayed %v", recs)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("compaction left its temp file behind")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, _ := openT(t, path)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := j.Append(Record{Type: 1}); err == nil {
		t.Error("append after close succeeded")
	}
	if err := j.Compact(nil); err == nil {
		t.Error("compact after close succeeded")
	}
}

func TestParseEmptyJournal(t *testing.T) {
	recs, good, err := Parse(Header())
	if err != nil || len(recs) != 0 || good != headerLen {
		t.Fatalf("recs=%d good=%d err=%v", len(recs), good, err)
	}
}

func TestOpenErrorPaths(t *testing.T) {
	// A directory at the journal path cannot be opened for append.
	dir := t.TempDir()
	if _, _, err := Open(dir); err == nil {
		t.Error("Open accepted a directory")
	}
	// A missing parent directory is the caller's bug, not a create case.
	if _, _, err := Open(filepath.Join(dir, "no", "such", "c.journal")); err == nil {
		t.Error("Open created parents it was never asked to")
	}
}

func TestPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, _ := openT(t, path)
	defer j.Close()
	if j.path != path {
		t.Errorf("path = %q, want %q", j.path, path)
	}
}

func TestCompactRejectsOversizedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, _ := openT(t, path)
	defer j.Close()
	if err := j.Compact([]Record{{Type: 1, Data: make([]byte, MaxRecord+1)}}); err == nil {
		t.Error("compact accepted a record over MaxRecord")
	}
	// The failed compaction must leave the journal usable.
	if err := j.Append(Record{Type: 1, Data: []byte("ok")}); err != nil {
		t.Errorf("append after failed compact: %v", err)
	}
}

func TestAppendSurfacesWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, _ := openT(t, path)
	// Kill the fd out from under the journal — the torn-write case where
	// the OS, not the caller, fails the append.
	j.f.Close()
	if err := j.Append(Record{Type: 1, Data: []byte("x")}); err == nil {
		t.Error("append over a dead fd succeeded")
	}
}

func TestCompactSurfacesTempWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, _ := openT(t, path)
	defer j.Close()
	// Point the journal at a path whose parent does not exist: the temp
	// snapshot cannot be written, and the original file must survive.
	orig := j.path
	j.path = filepath.Join(t.TempDir(), "gone", "c.journal")
	if err := j.Compact(nil); err == nil {
		t.Error("compact into a missing directory succeeded")
	}
	j.path = orig
	if err := j.Append(Record{Type: 1, Data: []byte("ok")}); err != nil {
		t.Errorf("append after failed compact: %v", err)
	}
}

package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store is a content-addressed trace store on a directory:
//
//	<dir>/<name>.trace       binary manifest (see manifest.go)
//	<dir>/blobs/<hash16>.iq  the packet's iq.EncodeInt16 codes, nothing else
//
// A blob file holds exactly the bytes its name hashes (FNV-64a, see
// HashCodes), in the raw format of the golden vectors under
// internal/{lora,ble}/testdata. Blobs are shared between traces, written
// once and never rewritten; GC removes the ones no manifest references.
// All writes go through a temp file and rename, so a crashed writer never
// leaves a half-written manifest or blob under its final name.
type Store struct {
	dir string
}

const (
	manifestExt = ".trace"
	blobExt     = ".iq"
)

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("trace: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// validName rejects names that would escape the store directory or
// collide with its own layout.
func validName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("trace: invalid trace name %q", name)
	}
	return nil
}

// List returns the stored trace names in sorted order.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("trace: list: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), manifestExt) {
			names = append(names, strings.TrimSuffix(e.Name(), manifestExt))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Put stores a trace under name, writing any blobs the store does not
// already hold. An existing trace of the same name is replaced.
func (s *Store) Put(name string, t *Trace) error {
	if err := validName(name); err != nil {
		return err
	}
	if err := t.validate(); err != nil {
		return err
	}
	wire, err := t.Manifest.MarshalBinary()
	if err != nil {
		return err
	}
	for _, b := range t.Blobs {
		path := s.blobPath(b.Hash)
		if _, err := os.Stat(path); err == nil {
			// Content-addressed: an existing file already holds these
			// exact bytes.
			continue
		}
		if err := atomicWrite(path, b.Codes); err != nil {
			return err
		}
	}
	return atomicWrite(filepath.Join(s.dir, name+manifestExt), wire)
}

// Get loads a trace by name, reads its blobs and verifies every content
// hash and packet size.
func (s *Store) Get(name string) (*Trace, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	wire, err := os.ReadFile(filepath.Join(s.dir, name+manifestExt))
	if err != nil {
		return nil, fmt.Errorf("trace: get %s: %w", name, err)
	}
	var m Manifest
	if err := m.UnmarshalBinary(wire); err != nil {
		return nil, fmt.Errorf("trace: get %s: %w", name, err)
	}
	t := &Trace{Manifest: m}
	for _, p := range m.Packets {
		if t.Blob(p.Hash) != nil {
			continue
		}
		codes, err := s.readBlob(p)
		if err != nil {
			return nil, fmt.Errorf("trace: get %s: %w", name, err)
		}
		t.Blobs = append(t.Blobs, Blob{Hash: p.Hash, Codes: codes})
		sort.Slice(t.Blobs, func(i, j int) bool { return t.Blobs[i].Hash < t.Blobs[j].Hash })
	}
	if err := t.validate(); err != nil {
		return nil, fmt.Errorf("trace: get %s: %w", name, err)
	}
	return t, nil
}

// GC removes blobs no stored manifest references and returns their
// hashes in sorted order.
func (s *Store) GC() ([]uint64, error) {
	names, err := s.List()
	if err != nil {
		return nil, err
	}
	live := map[uint64]bool{}
	for _, name := range names {
		wire, err := os.ReadFile(filepath.Join(s.dir, name+manifestExt))
		if err != nil {
			return nil, fmt.Errorf("trace: gc: %w", err)
		}
		var m Manifest
		if err := m.UnmarshalBinary(wire); err != nil {
			return nil, fmt.Errorf("trace: gc: manifest %s: %w", name, err)
		}
		for _, p := range m.Packets {
			live[p.Hash] = true
		}
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, "blobs"))
	if err != nil {
		return nil, fmt.Errorf("trace: gc: %w", err)
	}
	var removed []uint64
	for _, e := range entries {
		hex, ok := strings.CutSuffix(e.Name(), blobExt)
		if e.IsDir() || !ok {
			continue
		}
		hash, err := strconv.ParseUint(hex, 16, 64)
		if err != nil || len(hex) != 16 {
			continue // not a blob of ours; leave it alone
		}
		if live[hash] {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, "blobs", e.Name())); err != nil {
			return removed, fmt.Errorf("trace: gc: %w", err)
		}
		removed = append(removed, hash)
	}
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	return removed, nil
}

func (s *Store) blobPath(hash uint64) string {
	return filepath.Join(s.dir, "blobs", fmt.Sprintf("%016x%s", hash, blobExt))
}

// readBlob loads the blob of packet p. Its length is fixed by the
// packet's sample count, which the manifest parser caps, so a file of any
// other size is refused before anything is allocated.
func (s *Store) readBlob(p Packet) ([]byte, error) {
	f, err := os.Open(s.blobPath(p.Hash))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if want := 4 * int64(p.Samples); fi.Size() != want {
		return nil, fmt.Errorf("blob %016x holds %d bytes, packet wants %d", p.Hash, fi.Size(), want)
	}
	codes := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, codes); err != nil {
		return nil, fmt.Errorf("blob %016x: %w", p.Hash, err)
	}
	return codes, nil
}

// atomicWrite writes data next to path and renames it into place.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}

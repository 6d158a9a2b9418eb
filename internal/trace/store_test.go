package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store.Dir() != dir {
		t.Fatal("store dir")
	}
	tr := recordReference(t, "lora", 3)
	if err := store.Put("lora-ref", tr); err != nil {
		t.Fatal(err)
	}
	// Putting again must be a no-op for blobs (content-addressed) and a
	// clean replace for the manifest.
	if err := store.Put("lora-ref", tr); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get("lora-ref")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("stored trace did not round-trip")
	}
	// A blob file is the codes it is named after, byte for byte.
	for _, b := range tr.Blobs {
		raw, err := os.ReadFile(store.blobPath(b.Hash))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, b.Codes) {
			t.Errorf("blob %016x: file is not its codes", b.Hash)
		}
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "lora-ref" {
		t.Fatalf("list %v", names)
	}
}

func TestStoreRejectsBadNames(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := recordReference(t, "ble", 1)
	for _, name := range []string{"", "a/b", `a\b`, ".hidden", "../escape"} {
		if err := store.Put(name, tr); err == nil {
			t.Errorf("name %q accepted by Put", name)
		}
		if _, err := store.Get(name); err == nil {
			t.Errorf("name %q accepted by Get", name)
		}
	}
	if _, err := store.Get("absent"); err == nil {
		t.Error("missing trace returned")
	}
}

func TestStoreGC(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := recordReference(t, "lora", 2)
	b := recordReference(t, "ble", 2)
	if err := store.Put("a", a); err != nil {
		t.Fatal(err)
	}
	if err := store.Put("b", b); err != nil {
		t.Fatal(err)
	}
	// Files that are not <16 hex>.iq blobs, such as an unconverted .lzo
	// blob of the old layout, are not the store's to collect.
	foreign := []string{"0123456789abcdef.lzo", "notes.txt", "0123.iq"}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(store.Dir(), "blobs", name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing unreferenced yet.
	removed, err := store.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatalf("gc removed %v with all traces live", removed)
	}
	if err := os.Remove(filepath.Join(store.Dir(), "a"+manifestExt)); err != nil {
		t.Fatal(err)
	}
	removed, err = store.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != len(a.Blobs) {
		t.Fatalf("gc removed %d blobs, want %d", len(removed), len(a.Blobs))
	}
	for i := 1; i < len(removed); i++ {
		if removed[i-1] >= removed[i] {
			t.Fatal("gc result not sorted")
		}
	}
	// b must still load intact.
	if _, err := store.Get("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get("a"); err == nil {
		t.Error("removed trace still loads")
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(store.Dir(), "blobs", name)); err != nil {
			t.Errorf("gc touched %s: %v", name, err)
		}
	}
}

func TestStoreDetectsCorruptBlob(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := recordReference(t, "ble", 2)
	if err := store.Put("c", tr); err != nil {
		t.Fatal(err)
	}
	// A blob one byte short or one byte long on disk: Get must refuse it
	// for its size.
	path := store.blobPath(tr.Blobs[0].Hash)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{raw[:len(raw)-1], append(bytes.Clone(raw), 0)} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Get("c"); err == nil {
			t.Errorf("blob of %d bytes (want %d) loaded", len(bad), len(raw))
		}
	}
	// A blob of the right size whose bytes hash differently must also fail.
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	other := store.blobPath(tr.Blobs[0].Hash ^ 1)
	if err := os.Rename(path, other); err != nil {
		t.Fatal(err)
	}
	forged := *tr
	forged.Manifest.Packets = append([]Packet(nil), tr.Manifest.Packets...)
	for i := range forged.Manifest.Packets {
		if forged.Manifest.Packets[i].Hash == tr.Blobs[0].Hash {
			forged.Manifest.Packets[i].Hash ^= 1
		}
	}
	wire, err := forged.Manifest.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store.Dir(), "c"+manifestExt), wire, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get("c"); err == nil {
		t.Error("content-hash mismatch loaded")
	}
}

func TestStoreDetectsCorruptManifest(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := recordReference(t, "lora", 1)
	if err := store.Put("m", tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(store.Dir(), "m"+manifestExt)
	wire, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wire[len(wire)/2] ^= 0x40
	if err := os.WriteFile(path, wire, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get("m"); err == nil {
		t.Error("bit-flipped manifest loaded")
	}
	if _, err := store.GC(); err == nil {
		t.Error("gc walked over a corrupt manifest")
	}
}

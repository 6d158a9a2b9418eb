package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestCommittedCorpusReplays is the cross-version A/B gate: every trace
// committed under testdata/traces must replay byte-identically to the run
// that recorded it, at one worker and at full parallelism. A demodulator
// change that bends behavior on these waveforms fails here — regenerate
// the corpus with cmd/tinysdr-trace only when the change is intentional.
func TestCommittedCorpusReplays(t *testing.T) {
	store, err := OpenStore("../../testdata/traces")
	if err != nil {
		t.Fatal(err)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("committed corpus is empty")
	}
	sawFailures := false
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			tr, err := store.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Manifest.Failures > 0 {
				sawFailures = true
			}
			for _, workers := range []int{1, runtime.NumCPU()} {
				if err := Verify(tr, workers); err != nil {
					t.Fatalf("verify at %d workers: %v", workers, err)
				}
			}
		})
	}
	if !sawFailures {
		// The corpus must keep exercising the loss-record path, not only
		// clean captures.
		t.Error("no committed trace records any packet loss")
	}
}

// TestCorpusBlobsAreTheirCodes pins the committed corpus to the store
// format: every entry under blobs/ is a <16 hex>.iq file holding exactly
// the codes that hash to its name, and the entries are exactly the blobs
// the committed manifests reference — no stale file and no orphan.
func TestCorpusBlobsAreTheirCodes(t *testing.T) {
	const dir = "../../testdata/traces"
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	referenced := map[string]bool{}
	for _, name := range names {
		wire, err := os.ReadFile(filepath.Join(dir, name+manifestExt))
		if err != nil {
			t.Fatal(err)
		}
		var m Manifest
		if err := m.UnmarshalBinary(wire); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range m.Packets {
			referenced[fmt.Sprintf("%016x.iq", p.Hash)] = true
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	present := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		present[name] = true
		hex, ok := strings.CutSuffix(name, ".iq")
		hash, err := strconv.ParseUint(hex, 16, 64)
		if !ok || err != nil || name != fmt.Sprintf("%016x.iq", hash) {
			t.Errorf("blobs/%s is not named <16 hex>.iq", name)
			continue
		}
		codes, err := os.ReadFile(filepath.Join(dir, "blobs", name))
		if err != nil {
			t.Fatal(err)
		}
		if got := HashCodes(codes); got != hash {
			t.Errorf("blobs/%s hashes to %016x", name, got)
		}
		if !referenced[name] {
			t.Errorf("blobs/%s: no committed manifest references it", name)
		}
	}
	for name := range referenced {
		if !present[name] {
			t.Errorf("blobs/%s is referenced but missing", name)
		}
	}
}

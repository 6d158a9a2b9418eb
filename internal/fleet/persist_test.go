package fleet

// Durability tests for the journal-backed server: crash/recovery at every
// journal-append boundary, resumable execution at the shard seam, drain
// semantics, idempotent create, and ID allocation across restarts. A kill
// leaves nothing but a prefix of the journal, so each crash point is a
// state dir holding the first k records of an uninterrupted run's journal
// (crashDir). The governing invariant is TestResumeBitIdentical: however a
// campaign's execution is interrupted, the recovered Result must be
// byte-identical to an uninterrupted run of the same spec.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/uwsdr/tinysdr/internal/journal"
)

// crashSpec is the reference campaign for crash sweeps: 2 shards, so its
// full journal is exactly 5 records (created, started, 2 shard-dones,
// done) and every prefix is a reachable crash point.
var crashSpec = Spec{Seed: 7, Nodes: 40, ShardSize: 20, Mode: ModeBroadcast}

func resultJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshaling result: %v", err)
	}
	return data
}

// waitTerminal waits for the campaign with a bounded context so a hung
// recovery fails the test instead of timing it out.
func waitTerminal(t testing.TB, s *Server, id string) *Campaign {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return c
}

// TestResumeBitIdentical is the durability gate: recover from a kill after
// every possible journal append of a campaign's lifecycle, and require the
// resumed campaign's Result to be byte-identical to an uninterrupted run.
// A recovered campaign must also only re-execute shards the journal does
// not already hold.
func TestResumeBitIdentical(t *testing.T) {
	golden, err := Run(crashSpec)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	goldenJSON := resultJSON(t, golden)
	ids, full, drained := runJournal(t, t.TempDir(), crashSpec)

	// 5 total appends; crashing after the 5th is a completed campaign.
	for crashAt := 1; crashAt <= 5; crashAt++ {
		t.Run(fmt.Sprintf("crash-after-append-%d", crashAt), func(t *testing.T) {
			dir := crashDir(t, full, crashAt)
			s, err := OpenServer(dir)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer s.Drain(context.Background())
			got, ok := s.Get(ids[0])
			if !ok {
				t.Fatalf("campaign %s lost across the crash", ids[0])
			}
			if crashAt == 5 && got.Status != StatusDone {
				t.Fatalf("fully journaled campaign recovered as %s, want %s", got.Status, StatusDone)
			}
			fin := waitTerminal(t, s, ids[0])
			if fin.Status != StatusDone {
				t.Fatalf("recovered campaign ended %s (%s), want %s", fin.Status, fin.Error, StatusDone)
			}
			if resumed := resultJSON(t, fin.Result); !bytes.Equal(resumed, goldenJSON) {
				t.Errorf("resumed result differs from uninterrupted run\n got: %s\nwant: %s", resumed, goldenJSON)
			}
			// The resumed run appended records, so the drain must compact
			// them to what an uninterrupted run's drain leaves.
			if err := s.Drain(context.Background()); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if got := readJournal(t, dir); !bytes.Equal(got, drained) {
				t.Errorf("journal after resume and drain differs from an uninterrupted run's (%d vs %d bytes)", len(got), len(drained))
			}
		})
	}
}

// TestCrashMidStreamRecoversEveryCampaign crashes a server running several
// campaigns at once. Every prefix of a three-campaign journal is a state a
// kill can leave, with campaigns done, running and still queued; each
// campaign the prefix created must finish done, byte-equal to its own
// uninterrupted run.
func TestCrashMidStreamRecoversEveryCampaign(t *testing.T) {
	specs := []Spec{crashSpec, crashSpec, crashSpec}
	for i := range specs {
		specs[i].Seed += int64(i)
	}
	ids, full, _ := runJournal(t, t.TempDir(), specs...)
	golden := make(map[string][]byte, len(ids))
	for i, id := range ids {
		res, err := Run(specs[i])
		if err != nil {
			t.Fatalf("golden run of %s: %v", id, err)
		}
		golden[id] = resultJSON(t, res)
	}
	recs, _, err := journal.Parse(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5*len(specs) {
		t.Fatalf("uninterrupted journal holds %d records, want %d", len(recs), 5*len(specs))
	}

	for crashAt := 1; crashAt <= len(recs); crashAt++ {
		t.Run(fmt.Sprintf("crash-after-append-%d", crashAt), func(t *testing.T) {
			created := 0
			for _, r := range recs[:crashAt] {
				if r.Type == recCreated {
					created++
				}
			}
			s, err := OpenServer(crashDir(t, full, crashAt))
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			defer s.Drain(context.Background())
			recovered := s.List()
			if len(recovered) != created {
				t.Fatalf("recovered %d campaigns, the journal prefix created %d", len(recovered), created)
			}
			for _, c := range recovered {
				fin := waitTerminal(t, s, c.ID)
				if fin.Status != StatusDone {
					t.Errorf("campaign %s ended %s (%s), want %s", c.ID, fin.Status, fin.Error, StatusDone)
					continue
				}
				if !bytes.Equal(resultJSON(t, fin.Result), golden[c.ID]) {
					t.Errorf("campaign %s: recovered result differs from its uninterrupted run", c.ID)
				}
			}
		})
	}
}

// runJournal creates every spec on a journal-backed server in the empty
// state dir dir, in order and before any has finished, and runs them to
// the end. It returns the campaign IDs in creation order, the journal as
// the run left it — read before the drain, so it holds every append — and
// the journal the drain leaves, created + terminal for each campaign.
func runJournal(tb testing.TB, dir string, specs ...Spec) (ids []string, full, drained []byte) {
	tb.Helper()
	s, err := OpenServer(dir)
	if err != nil {
		tb.Fatalf("open: %v", err)
	}
	for _, spec := range specs {
		c, _, err := s.CreateID("", spec)
		if err != nil {
			tb.Fatalf("create: %v", err)
		}
		ids = append(ids, c.ID)
	}
	for _, id := range ids {
		waitTerminal(tb, s, id)
	}
	full = readJournal(tb, dir)
	if err := s.Drain(context.Background()); err != nil {
		tb.Fatalf("drain: %v", err)
	}
	return ids, full, readJournal(tb, dir)
}

// crashDir returns a fresh state dir whose journal is journal.Header()
// plus the first k frames of full: exactly what a kill right after the
// k-th append of the run that wrote full leaves on disk.
func crashDir(tb testing.TB, full []byte, k int) string {
	tb.Helper()
	recs, _, err := journal.Parse(full)
	if err != nil {
		tb.Fatal(err)
	}
	if k > len(recs) {
		tb.Fatalf("crash point %d past the journal's %d records", k, len(recs))
	}
	prefix := journal.Header()
	for _, r := range recs[:k] {
		if prefix, err = journal.AppendFrame(prefix, r); err != nil {
			tb.Fatal(err)
		}
	}
	dir := tb.TempDir()
	if err := os.WriteFile(filepath.Join(dir, JournalName), prefix, 0o644); err != nil {
		tb.Fatal(err)
	}
	return dir
}

func readJournal(tb testing.TB, dir string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join(dir, JournalName))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestRecoverResumesOnlyMissingShards pins the resume seam: a campaign
// recovered with journaled shards must keep those exact results (the
// journal is the authority, not a re-execution).
func TestRecoverResumesOnlyMissingShards(t *testing.T) {
	ids, full, _ := runJournal(t, t.TempDir(), crashSpec)
	// Killed after the first shard-done record (created, started, shard).
	dir := crashDir(t, full, 3)
	s, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer s.Drain(context.Background())
	fin := waitTerminal(t, s, ids[0])
	if fin.Status != StatusDone {
		t.Fatalf("recovered campaign ended %s, want done", fin.Status)
	}
	// Drain compacts; the compacted journal of a done campaign is exactly
	// created + done — the shard-done records were consumed by the merge.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	j, recs, err := journal.Open(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatalf("reading compacted journal: %v", err)
	}
	j.Close()
	if len(recs) != 2 || recs[0].Type != recCreated || recs[1].Type != recDone {
		types := make([]uint8, len(recs))
		for i, r := range recs {
			types[i] = r.Type
		}
		t.Fatalf("compacted journal records %v, want [created done]", types)
	}
}

// TestIDAllocationSurvivesRestart pins the high-water fix: a recovered
// server must allocate past every journaled ID, including client-supplied
// IDs that squat in the server's own c<N> namespace.
func TestIDAllocationSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	c1, _, err := s1.CreateID("", crashSpec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if c1.ID != "c1" {
		t.Fatalf("first ID %q, want c1", c1.ID)
	}
	// A client-supplied ID deep in the server namespace must raise the
	// counter too.
	if _, _, err := s1.CreateID("c41", crashSpec); err != nil {
		t.Fatalf("client-ID create: %v", err)
	}
	waitTerminal(t, s1, "c41")
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	s2, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Drain(context.Background())
	c3, _, err := s2.CreateID("", crashSpec)
	if err != nil {
		t.Fatalf("create after restart: %v", err)
	}
	if c3.ID != "c42" {
		t.Fatalf("post-restart ID %q, want c42 (past the journaled high water)", c3.ID)
	}
	if _, ok := s2.Get("c1"); !ok {
		t.Fatalf("campaign c1 lost across restart")
	}
}

func TestIDHighWater(t *testing.T) {
	cases := []struct {
		id   string
		want int
	}{
		{"c1", 1}, {"c41", 41}, {"c0", 0}, {"c007", 0}, {"c-3", 0},
		{"x9", 0}, {"c", 0}, {"c9z", 0}, {"soak", 0},
	}
	for _, tc := range cases {
		if got := idHighWater(tc.id); got != tc.want {
			t.Errorf("idHighWater(%q) = %d, want %d", tc.id, got, tc.want)
		}
	}
}

// TestIdempotentCreate pins the client-supplied-ID contract: same ID and
// spec returns the existing campaign, same ID with a different spec is
// ErrSpecConflict, and malformed IDs are rejected outright.
func TestIdempotentCreate(t *testing.T) {
	s := NewServer()
	c1, created, err := s.CreateID("soak", crashSpec)
	if err != nil || !created {
		t.Fatalf("first create: created=%v err=%v", created, err)
	}
	c2, created, err := s.CreateID("soak", crashSpec)
	if err != nil {
		t.Fatalf("idempotent re-create: %v", err)
	}
	if created || c2.ID != c1.ID {
		t.Fatalf("re-create returned created=%v id=%q, want existing %q", created, c2.ID, c1.ID)
	}
	other := crashSpec
	other.Seed++
	if _, _, err := s.CreateID("soak", other); !errors.Is(err, ErrSpecConflict) {
		t.Fatalf("conflicting spec error %v, want ErrSpecConflict", err)
	}
	for _, bad := range []string{"has space", "sla/sh", string(make([]byte, 65))} {
		if _, _, err := s.CreateID(bad, crashSpec); err == nil {
			t.Errorf("CreateID(%q) accepted a malformed id", bad)
		}
	}
	waitTerminal(t, s, "soak")
	// Idempotent create against a finished campaign still returns it.
	c3, created, err := s.CreateID("soak", crashSpec)
	if err != nil || created {
		t.Fatalf("re-create after done: created=%v err=%v", created, err)
	}
	if c3.Status != StatusDone {
		t.Fatalf("re-create after done returned status %s", c3.Status)
	}
}

// TestDrainStopsAdmitting pins drain's admission contract and that a
// drained server's journal reopens cleanly.
func TestDrainStopsAdmitting(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, _, err := s.CreateID("", crashSpec); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, _, err := s.CreateID("", crashSpec); !errors.Is(err, ErrDraining) {
		t.Fatalf("create on drained server: %v, want ErrDraining", err)
	}
	// Idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	s2, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	defer s2.Drain(context.Background())
	fin := waitTerminal(t, s2, "c1")
	if fin.Status != StatusDone {
		t.Fatalf("campaign after drain+reopen: %s, want done", fin.Status)
	}
}

// TestDrainCutsAtShardBoundary drains mid-campaign and requires the
// campaign to come back resumable and finish byte-identical after reopen.
// The drain lands at a nondeterministic shard, which is exactly the
// point: whatever the cut, the journal carries the campaign across.
func TestDrainCutsAtShardBoundary(t *testing.T) {
	golden, err := Run(Spec{Seed: 11, Nodes: 200, ShardSize: 20, Mode: ModeBroadcast})
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	dir := t.TempDir()
	s1, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	c, _, err := s1.CreateID("", golden.Spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// Let at least one shard land, then drain.
	for {
		got, _ := s1.Get(c.ID)
		if got.ShardsDone > 0 || got.Status == StatusDone {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s2, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Drain(context.Background())
	fin := waitTerminal(t, s2, c.ID)
	if fin.Status != StatusDone {
		t.Fatalf("resumed campaign ended %s, want done", fin.Status)
	}
	if got, want := resultJSON(t, fin.Result), resultJSON(t, golden); !bytes.Equal(got, want) {
		t.Errorf("drained-and-resumed result differs from uninterrupted run")
	}
}

// TestCancelJournaledTerminal pins that a user cancel is a journaled
// terminal state: it survives restart as canceled, never re-runs.
func TestCancelJournaledTerminal(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Queue two campaigns; the second waits on the run slot, so canceling
	// it exercises the canceled-while-pending path deterministically.
	a, _, err := s1.CreateID("", crashSpec)
	if err != nil {
		t.Fatalf("create a: %v", err)
	}
	b, _, err := s1.CreateID("", Spec{Seed: 13, Nodes: 2000, ShardSize: 20})
	if err != nil {
		t.Fatalf("create b: %v", err)
	}
	canceled, err := s1.Cancel(b.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if canceled.Status != StatusCanceled {
		t.Fatalf("canceled campaign status %s", canceled.Status)
	}
	waitTerminal(t, s1, a.ID)
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s2, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Drain(context.Background())
	got, ok := s2.Get(b.ID)
	if !ok || got.Status != StatusCanceled {
		t.Fatalf("canceled campaign recovered as %v (found=%v), want canceled", got, ok)
	}
}

// TestDrainCreateCancelStress hammers a journal-backed server with
// concurrent creates, cancels, and a drain, then requires (a) no campaign
// is lost, (b) the journal replays cleanly, and (c) every admitted
// campaign reaches a terminal state after reopen. Run under -race this is
// the control plane's interleaving gate.
func TestDrainCreateCancelStress(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const creators = 8
	var mu sync.Mutex
	var admitted []string
	var wg sync.WaitGroup
	for g := 0; g < creators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				spec := crashSpec
				spec.Seed = int64(g*100 + i)
				id := fmt.Sprintf("stress-%d-%d", g, i)
				c, _, err := s1.CreateID(id, spec)
				if errors.Is(err, ErrDraining) {
					return // drain won the race; stop admitting
				}
				if err != nil {
					t.Errorf("create %s: %v", id, err)
					return
				}
				mu.Lock()
				admitted = append(admitted, c.ID)
				mu.Unlock()
				if i%3 == 1 {
					if _, err := s1.Cancel(c.ID); err != nil {
						t.Errorf("cancel %s: %v", c.ID, err)
					}
				}
			}
		}(g)
	}
	// Drain concurrently with the create/cancel storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		if err := s1.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	wg.Wait()
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("final drain: %v", err)
	}

	s2, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("reopen after stress: %v", err)
	}
	defer s2.Drain(context.Background())
	for _, id := range admitted {
		fin := waitTerminal(t, s2, id)
		switch fin.Status {
		case StatusDone, StatusCanceled:
		default:
			t.Errorf("campaign %s ended %s (%s), want done or canceled", id, fin.Status, fin.Error)
		}
	}
}

// TestOpenServerRejectsCorruptJournal pins strict replay: a CRC-valid
// journal whose records are semantically impossible (shard for an unknown
// campaign) must refuse to open rather than guess.
func TestOpenServerRejectsCorruptJournal(t *testing.T) {
	dir := t.TempDir()
	buf := journal.Header()
	rec, err := marshalRecord(recStarted, startedRecord{ID: "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if buf, err = journal.AppendFrame(buf, rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, JournalName), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenServer(dir); err == nil {
		t.Fatalf("OpenServer accepted a journal referencing an unknown campaign")
	}
}

// TestCompactionCanonical pins compaction as a fixed point that runs
// only when it changes something. Every case holds crashSpec's campaign
// as c1, so whatever the state dir held, the journal after OpenServer and
// after Drain must be the bytes a clean run and drain leave — the
// compaction image. A journal that already is that image, once
// journal.Open has cut a torn tail, must keep its very file across the
// open/drain cycle. The hard link holds the original inode, so a rewrite
// through tmp+rename cannot reuse its number and pass as the same file.
func TestCompactionCanonical(t *testing.T) {
	_, full, want := runJournal(t, t.TempDir(), crashSpec)
	cases := []struct {
		name string
		// killed: the server died right after the done record, leaving
		// the superseded started and shard-done records for open to
		// compact away.
		killed bool
		// torn: a partial frame follows the last record.
		torn bool
		// indent: the records' JSON is indented, as a journal another
		// writer left might be; replay accepts it, open re-encodes it.
		indent bool
	}{
		{name: "clean-drain"},
		{name: "torn-tail", torn: true},
		{name: "killed-after-done", killed: true},
		{name: "killed-after-done-torn-tail", killed: true, torn: true},
		{name: "indented-json", indent: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var dir string
			if tc.killed {
				dir = crashDir(t, full, 5)
			} else {
				dir = t.TempDir()
				runJournal(t, dir, crashSpec)
			}
			path := filepath.Join(dir, JournalName)
			if tc.indent {
				recs, _, err := journal.Parse(readJournal(t, dir))
				if err != nil {
					t.Fatal(err)
				}
				out := journal.Header()
				for _, r := range recs {
					var buf bytes.Buffer
					if err := json.Indent(&buf, r.Data, "", "  "); err != nil {
						t.Fatal(err)
					}
					if out, err = journal.AppendFrame(out, journal.Record{Type: r.Type, Data: buf.Bytes()}); err != nil {
						t.Fatal(err)
					}
				}
				if err := os.WriteFile(path, out, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.torn {
				frame, err := journal.AppendFrame(nil, journal.Record{Type: recStarted, Data: []byte(`{"id":"c2"}`)})
				if err != nil {
					t.Fatal(err)
				}
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(frame[:len(frame)-3]); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			held := filepath.Join(dir, "held.journal")
			if err := os.Link(path, held); err != nil {
				t.Fatal(err)
			}

			s2, err := OpenServer(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if got := readJournal(t, dir); !bytes.Equal(got, want) {
				t.Errorf("journal after open is not the compaction image (%d vs %d bytes)", len(got), len(want))
			}
			if err := s2.Drain(context.Background()); err != nil {
				t.Fatalf("drain after reopen: %v", err)
			}
			if got := readJournal(t, dir); !bytes.Equal(got, want) {
				t.Errorf("journal after drain is not the compaction image (%d vs %d bytes)", len(got), len(want))
			}
			heldInfo, err := os.Stat(held)
			if err != nil {
				t.Fatal(err)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			keep := !tc.killed && !tc.indent
			if kept := os.SameFile(heldInfo, info); kept != keep {
				t.Errorf("journal file kept across the open/drain cycle: %v, want %v", kept, keep)
			}
		})
	}
}

// TestDrainAfterAbandonedDrain pins the repeated-drain rule. A Drain whose
// ctx expires returns while runners still settle and the journal is still
// open; the next Drain must wait them out, compact and close the journal,
// not report success while the cut campaign is still journaling — a
// caller that reopened the state dir then would put two writers on one
// journal.
func TestDrainAfterAbandonedDrain(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenServer(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	c, _, err := s.CreateID("", Spec{Seed: 17, Nodes: 2000, ShardSize: 20, Mode: ModeBroadcast})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for {
		got, _ := s.Get(c.ID)
		if got.ShardsDone > 0 {
			break
		}
		if got.Status != StatusPending && got.Status != StatusRunning {
			t.Fatalf("campaign ended %s before its first shard was journaled", got.Status)
		}
		time.Sleep(time.Millisecond)
	}
	// Count one more runner, so the first drain gives up before the
	// campaign settles however the shards are timed.
	s.wg.Add(1)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("drain with an expired ctx: %v, want context.Canceled", err)
	}
	s.wg.Done()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("repeated drain: %v", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.states[c.ID].done:
	default:
		t.Fatalf("repeated drain returned while campaign %s was still running", c.ID)
	}
	if err := s.j.Append(journal.Record{Type: recStarted, Data: []byte(`{"id":"late"}`)}); err == nil {
		t.Fatalf("journal still open after the repeated drain")
	}
	snap, err := s.snapshotRecordsLocked()
	if err != nil {
		t.Fatal(err)
	}
	image := journal.Header()
	for _, r := range snap {
		if image, err = journal.AppendFrame(image, r); err != nil {
			t.Fatal(err)
		}
	}
	if got := readJournal(t, dir); !bytes.Equal(got, image) {
		t.Errorf("journal after the repeated drain is not the compaction image of the cut campaign (%d vs %d bytes)", len(got), len(image))
	}
}

package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/uwsdr/tinysdr/internal/par"
	"github.com/uwsdr/tinysdr/internal/testbed"
)

// smallSpec keeps campaign tests fast: an 8 kB MCU image is ~50 chunks.
func smallSpec(nodes int, mode Mode, workers int) Spec {
	return Spec{Seed: 42, Nodes: nodes, Mode: mode, ImageKB: 8, Workers: workers}
}

func TestRunBroadcastCampaign(t *testing.T) {
	res, err := Run(smallSpec(100, ModeBroadcast, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 100 {
		t.Fatalf("nodes = %d, want 100", len(res.Nodes))
	}
	if res.Shards != 5 {
		t.Errorf("shards = %d, want 5 (20-node cells)", res.Shards)
	}
	if res.Failed != 0 {
		for _, n := range res.Nodes {
			if n.Err != "" {
				t.Errorf("node %d (shard %d, %.1f dBm): %s", n.ID, n.Shard, n.RSSIdBm, n.Err)
			}
		}
	}
	for i, n := range res.Nodes {
		if n.ID != i+1 {
			t.Fatalf("node %d has global ID %d", i, n.ID)
		}
		if n.Duration <= 0 || n.EnergyJ <= 0 {
			t.Errorf("node %d: duration %v, energy %v", n.ID, n.Duration, n.EnergyJ)
		}
	}
	if res.FleetTime <= 0 || res.AirBytes <= 0 || res.DataPackets <= 0 {
		t.Errorf("empty campaign totals: %+v", res)
	}
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	// The control-plane contract: a seeded campaign's per-node results are
	// bit-identical for any worker count.
	for _, mode := range []Mode{ModeBroadcast, ModeUnicast} {
		one, err := Run(smallSpec(100, mode, 1))
		if err != nil {
			t.Fatal(err)
		}
		eight, err := Run(smallSpec(100, mode, 8))
		if err != nil {
			t.Fatal(err)
		}
		// Workers is part of the spec, not the outcome; align it before
		// the exact comparison.
		eight.Spec.Workers = one.Spec.Workers
		if !reflect.DeepEqual(one, eight) {
			t.Errorf("%s campaign differs between 1 and 8 workers", mode)
		}
	}
}

func TestBroadcastCampaignBeatsUnicast(t *testing.T) {
	// The §7 claim at fleet scale: one broadcast transfer plus repair beats
	// N sequential transfers in both air bytes and fleet time.
	b, err := Run(smallSpec(40, ModeBroadcast, 0))
	if err != nil {
		t.Fatal(err)
	}
	u, err := Run(smallSpec(40, ModeUnicast, 0))
	if err != nil {
		t.Fatal(err)
	}
	if b.FleetTime >= u.FleetTime {
		t.Errorf("broadcast fleet time %v not below unicast %v", b.FleetTime, u.FleetTime)
	}
	if b.AirBytes >= u.AirBytes {
		t.Errorf("broadcast air bytes %d not below unicast %d", b.AirBytes, u.AirBytes)
	}
}

func TestShardPartitionIndependentOfWorkers(t *testing.T) {
	// 50 nodes in 20-node cells: shards of 20, 20, 10; device IDs restart
	// per cell while global IDs stay unique.
	res, err := Run(smallSpec(50, ModeBroadcast, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 3 {
		t.Fatalf("shards = %d", res.Shards)
	}
	counts := map[int]int{}
	for _, n := range res.Nodes {
		counts[n.Shard]++
	}
	if counts[0] != 20 || counts[1] != 20 || counts[2] != 10 {
		t.Errorf("shard sizes = %v", counts)
	}
	if last := res.Nodes[len(res.Nodes)-1]; last.ID != 50 || last.DeviceID != 10 {
		t.Errorf("last node ID %d device %d", last.ID, last.DeviceID)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Nodes: 0},
		{Nodes: -3},
		{Nodes: 70000},
		{Nodes: 10, Mode: "multicast"},
		{Nodes: 10, Image: "dsp"},
		{Nodes: 10, ShardSize: -1},
		{Nodes: 10, ImageKB: -4},
		{Nodes: 10, ImageKB: MaxImageKB + 1},
		{Nodes: 10, ImageKB: 9_100_000_000_000_000_000 / 1024}, // would overflow ImageKB*1024
	}
	for _, s := range bad {
		if _, err := Run(s); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	s, err := Spec{Nodes: 5}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode != ModeBroadcast || s.Image != ImageMCU ||
		s.ShardSize != testbed.DefaultNodeCount || s.ImageKB != DefaultImageKB {
		t.Errorf("defaults not applied: %+v", s)
	}
}

func TestSingleNodeCampaign(t *testing.T) {
	res, err := Run(smallSpec(1, ModeUnicast, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 || res.Shards != 1 {
		t.Fatalf("%d nodes in %d shards", len(res.Nodes), res.Shards)
	}
	if res.Nodes[0].Err != "" {
		t.Errorf("single node failed: %s", res.Nodes[0].Err)
	}
}

func TestCampaignResultGolden(t *testing.T) {
	// Pins the JSON bytes of whole campaigns across commits: a clean
	// broadcast, a faulted chaos campaign and a lossy unicast one. Worker
	// count independence is tested above; this catches any change to the
	// loss stream, the fault draws, the flash model or the accounting.
	chaos := "crash=0.0005,flashfail=0.01,bitrot=0.002,desync=0.03:4,duty=0.05,apoutage=0.002:8"
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"broadcast", Spec{Seed: 1, Nodes: 40, ShardSize: 20, Mode: ModeBroadcast, Image: ImageMCU, ImageKB: 78, Workers: 1},
			"ccd5b666779ed7e6d768dc244338502916e3ade10e48b0384a0dc8b8dbd5236e"},
		{"chaos", Spec{Seed: 13, Nodes: 60, Mode: ModeBroadcast, Image: ImageMCU, Quorum: 0.5, Faults: chaos},
			"d7767ea0b29b320844f7a8e904634f25ebcfbe1b3406adc35ac75ead6e17ece4"},
		{"unicast", Spec{Seed: 1, Nodes: 20, Mode: ModeUnicast, Image: ImageMCU},
			"368124d43ba7b671ac6555faf993e603f89d11d833a97654a776c9061a24c9cb"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("result sha256 %s, want %s (%d/%d programmed, failures %v)",
					got, c.want, res.Completed, len(res.Nodes), res.Failures)
			}
		})
	}
}

// benchSpec is the campaign of the sdrbench `campaign` workload: a
// 40-node broadcast of the default MCU image over two 20-node cells at
// one worker.
func benchSpec(seed int64) Spec {
	return Spec{
		Seed: seed, Nodes: 40, ShardSize: 20,
		Mode: ModeBroadcast, Image: ImageMCU, ImageKB: DefaultImageKB,
		Workers: 1,
	}
}

// BenchmarkRunBroadcast runs the campaign of the sdrbench `campaign`
// workload in process. Run it with -benchmem to read the bytes a
// campaign allocates.
func BenchmarkRunBroadcast(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(benchSpec(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenDrain restarts the control plane in process, as the
// sdrbench `campaign` side op does at seed 1: OpenServer then Drain on a
// fresh copy of a journal. "clean" is that op's journal, 48 finished
// campaigns left by a clean drain, which already is its own compaction.
// "killed-after-done" adds a 49th campaign whose server died right after
// its done record, so OpenServer must compact the superseded started and
// shard-done records away.
func BenchmarkOpenDrain(b *testing.B) {
	ctx := context.Background()
	dir := b.TempDir()
	s, err := OpenServer(dir)
	if err != nil {
		b.Fatal(err)
	}
	for j := 0; j < 48; j++ {
		id := fmt.Sprintf("seed-%d", j)
		if _, _, err := s.CreateID(id, benchSpec(par.SplitSeed(par.SplitSeed(1, 0), int64(j)))); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Wait(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Drain(ctx); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, JournalName)
	clean, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	if s, err = OpenServer(dir); err != nil {
		b.Fatal(err)
	}
	s.CrashAfterAppends(5)
	if _, _, err := s.CreateID("killed", benchSpec(2)); err != nil {
		b.Fatal(err)
	}
	<-s.Crashed()
	killed, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}

	for _, bc := range []struct {
		name    string
		journal []byte
	}{{"clean", clean}, {"killed-after-done", killed}} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			path := filepath.Join(dir, JournalName)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.WriteFile(path, bc.journal, 0o644); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				s, err := OpenServer(dir)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Drain(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

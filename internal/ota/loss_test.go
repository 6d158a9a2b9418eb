package ota

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/radio"
)

// referenceLossModel is the loss model the sessions ran before per-link
// tables: one map memo of packet error rates keyed by (RSSI, frame
// length), shared by every link of a session, and one rng draw per frame.
// The tables must reproduce its draws exactly.
type referenceLossModel struct {
	rng *rand.Rand
	per map[referenceLossKey]float64
}

type referenceLossKey struct {
	rssiDBm  float64
	frameLen int
}

func newReferenceLossModel(seed int64) *referenceLossModel {
	return &referenceLossModel{rng: rand.New(rand.NewSource(seed)), per: map[referenceLossKey]float64{}}
}

func (l *referenceLossModel) lost(phy lora.Params, rssiDBm float64, frameLen int) bool {
	k := referenceLossKey{rssiDBm, frameLen}
	per, ok := l.per[k]
	if !ok {
		per = lora.PacketErrorRate(phy, frameLen, rssiDBm, radio.SX1276NoiseFigureDB)
		l.per[k] = per
	}
	return l.rng.Float64() < per
}

// TestLossTablesMatchReferenceMemo draws every frame length a frame can
// have (0 to a 255-byte payload plus overhead) on links with distinct and
// duplicate RSSIs, three times over in scrambled orders, and requires the
// same outcome from the tables as from the reference memo on every draw.
func TestLossTablesMatchReferenceMemo(t *testing.T) {
	phy := BackboneParams()
	rssis := []float64{-119.5, -120, -119.5, -90, -120.25, -120, -121}
	const lengths = frameOverhead + 256
	got, ref := newLossModel(11), newReferenceLossModel(11)
	links := make([]lossTable, len(rssis))
	for i, r := range rssis {
		links[i].init(r)
	}
	order := rand.New(rand.NewSource(5))
	losses := 0
	for pass := 0; pass < 3; pass++ {
		for _, k := range order.Perm(len(rssis) * lengths) {
			i, n := k/lengths, k%lengths
			g, w := got.lost(&phy, &links[i], n), ref.lost(phy, rssis[i], n)
			if g != w {
				t.Fatalf("pass %d, link %d (%.2f dBm), %d-byte frame: lost %v, reference %v",
					pass, i, rssis[i], n, g, w)
			}
			if g {
				losses++
			}
		}
	}
	// The links must straddle the loss cliff, or the draws test nothing.
	if total := 3 * len(rssis) * lengths; losses == 0 || losses == total {
		t.Fatalf("%d of %d frames lost: no link is on the cliff", losses, total)
	}
	if g, w := got.rng.Float64(), ref.rng.Float64(); g != w {
		t.Fatalf("rng streams diverged after the draws: %v vs %v", g, w)
	}
}

// reportDigest hashes the printed form of reports, errors included.
func reportDigest(reports ...any) string {
	h := sha256.New()
	for _, r := range reports {
		fmt.Fprintf(h, "%+v\n", r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// lossyBroadcast programs a fleet at the given RSSIs and returns the
// report, after checking every programmed node holds the image.
func lossyBroadcast(t *testing.T, u *Update, rssis []float64, seed int64) *BroadcastReport {
	t.Helper()
	targets := make([]BroadcastTarget, len(rssis))
	for i, r := range rssis {
		node, _ := testNode(t, uint16(i+1))
		targets[i] = BroadcastTarget{Node: node, RSSIdBm: r}
	}
	rep, err := NewBroadcastSession(targets, seed).ProgramFleet(u, nil, HealConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range rep.PerNode {
		if p.Err != nil {
			continue
		}
		if err := targets[i].Node.VerifyImage(u.Image, TargetMCU); err != nil {
			t.Errorf("node %d: %v", p.NodeID, err)
		}
	}
	return rep
}

// TestLossStreamPinned pins the reports of lossy sessions to the ones the
// reference memo produced, so any change to the loss stream shows: a
// broadcast fleet with distinct and duplicate RSSIs, a unicast session
// whose RSSIdBm changes between two Program calls, and an update in
// 263-byte packets, whose 255-byte chunks make the longest frame.
func TestLossStreamPinned(t *testing.T) {
	img := fpga.SynthMCUFirmware(16*1024, 3)
	u, err := BuildUpdate(TargetMCU, img)
	if err != nil {
		t.Fatal(err)
	}
	big, err := BuildUpdateOptions(TargetMCU, img, UpdateOptions{PacketSize: 263, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(big.Chunks[0]); n != 255 {
		t.Fatalf("263-byte packets carry %d-byte chunks, want 255", n)
	}
	unicast := func(t *testing.T, u *Update, rssis ...float64) []any {
		node, _ := testNode(t, 9)
		s := NewSession(node, rssis[0], 21)
		var out []any
		for _, r := range rssis {
			s.RSSIdBm = r
			rep, err := s.Program(u, nil)
			if err != nil {
				t.Fatalf("unicast at %.2f dBm: %v", r, err)
			}
			if err := node.VerifyImage(u.Image, TargetMCU); err != nil {
				t.Fatal(err)
			}
			out = append(out, *rep)
		}
		return out
	}
	cases := []struct {
		name    string
		reports func(t *testing.T) []any
		want    string
	}{
		{"broadcast", func(t *testing.T) []any {
			return []any{*lossyBroadcast(t, u, []float64{-119.5, -120, -119.5, -90, -120, -120.25}, 3)}
		}, "083a7a0068aff6342cb00d86106f4991d38a9b2c260c450baac8d0235f874744"},
		{"unicast-rssi-change", func(t *testing.T) []any {
			return unicast(t, u, -119.5, -120.25)
		}, "5b61db5b744ae0194be1f71bc74aa6fe27595ce5a44176110087d7604a7d1260"},
		{"packet-263", func(t *testing.T) []any {
			return append([]any{*lossyBroadcast(t, big, []float64{-119.5, -120, -119.5, -90}, 5)},
				unicast(t, big, -120)...)
		}, "172cde4d296a19b4834cba7da572ce843effa35e948cc01dbed7794f0e586b8b"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reps := c.reports(t)
			if got := reportDigest(reps...); got != c.want {
				t.Errorf("report digest %s, want %s; reports:\n%+v", got, c.want, reps)
			}
		})
	}
}

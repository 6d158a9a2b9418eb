package eval

import (
	"fmt"
	"math"
	"time"

	"github.com/uwsdr/tinysdr/internal/fpga"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/lzo"
	"github.com/uwsdr/tinysdr/internal/mcu"
	"github.com/uwsdr/tinysdr/internal/ota"
	"github.com/uwsdr/tinysdr/internal/radio"
	"github.com/uwsdr/tinysdr/internal/testbed"
)

// Ablation studies for the design choices DESIGN.md calls out and the §7
// extensions the paper proposes. These go beyond the paper's figures; each
// quantifies one decision against its alternatives.

// AblationBroadcast compares sequential per-node programming (the paper's
// §3.4 AP) against the §7 broadcast MAC on the 20-node campus.
func AblationBroadcast(cfg Config) (*Result, error) {
	img := fpga.SynthMCUFirmware(78*1024, cfg.Seed)
	u, err := ota.BuildUpdate(ota.TargetMCU, img)
	if err != nil {
		return nil, err
	}

	// Sequential baseline: the Fig. 14 procedure; fleet time is the sum.
	campus := testbed.NewCampus(cfg.Seed)
	results := campus.ProgramAll(u, nil)
	var sequential time.Duration
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("sequential: node %d: %w", r.NodeID, r.Err)
		}
		sequential += r.Report.Duration
	}

	// Broadcast: shared transfer plus NACK-driven per-node repair.
	campus2 := testbed.NewCampus(cfg.Seed)
	targets := make([]ota.BroadcastTarget, 0, len(campus2.Nodes))
	for _, n := range campus2.Nodes {
		targets = append(targets, ota.BroadcastTarget{Node: n.OTA, RSSIdBm: campus2.RSSI(n)})
	}
	sess := ota.NewBroadcastSession(targets, cfg.Seed+1)
	brep, err := sess.ProgramFleet(u, nil, ota.HealConfig{})
	if err != nil {
		return nil, err
	}
	if n := brep.Failed(); n > 0 {
		return nil, fmt.Errorf("broadcast: %d nodes unprogrammed", n)
	}

	speedup := sequential.Seconds() / brep.FleetTime.Seconds()
	rows := [][]string{
		{"Sequential (paper §3.4)", fmt.Sprintf("%.0f s", sequential.Seconds()),
			fmt.Sprintf("%d", len(u.Chunks)*len(results)), "-"},
		{"Broadcast + repair (§7)", fmt.Sprintf("%.0f s", brep.FleetTime.Seconds()),
			fmt.Sprintf("%d", brep.BroadcastPackets), fmt.Sprintf("%d", brep.RepairPackets)},
	}
	text := RenderTable([]string{"Fleet MAC", "20-node fleet time", "Data packets", "Repairs"}, rows)
	text += fmt.Sprintf("\nbroadcasting the shared transfer programs the fleet %.1fx faster\n", speedup)
	return &Result{ID: "ablation-broadcast", Title: "Sequential vs broadcast programming", Text: text,
		Metrics: map[string]float64{
			"sequential_s": sequential.Seconds(),
			"broadcast_s":  brep.FleetTime.Seconds(),
			"speedup_x":    speedup,
		}}, nil
}

// AblationPacketSize reproduces the §5.3 design decision: "packets of 60 B
// balance the trade-off of protocol overhead versus range". It programs one
// node with different packet sizes at a strong and a sensitivity-level link.
func AblationPacketSize(cfg Config) (*Result, error) {
	img := fpga.SynthMCUFirmware(78*1024, cfg.Seed)
	sizes := []int{24, 40, 60, 120, 240}
	links := []struct {
		name string
		key  string
		rssi float64
	}{
		{"strong (-90 dBm)", "strong", -90},
		{"at range (-120.5 dBm)", "range", -120.5},
	}
	metrics := map[string]float64{}
	var rows [][]string
	for _, size := range sizes {
		u, err := ota.BuildUpdateOptions(ota.TargetMCU, img,
			ota.UpdateOptions{PacketSize: size, Compress: true})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d B", size), fmt.Sprintf("%d", len(u.Chunks))}
		for _, l := range links {
			node := newBenchNode(uint16(size))
			sess := ota.NewSession(node, l.rssi, cfg.Seed+int64(size))
			rep, err := sess.Program(u, nil)
			if err != nil {
				row = append(row, "failed")
				metrics[fmt.Sprintf("s_%d_%s", size, l.key)] = math.Inf(1)
				continue
			}
			row = append(row, fmt.Sprintf("%.0f s", rep.Duration.Seconds()))
			metrics[fmt.Sprintf("s_%d_%s", size, l.key)] = rep.Duration.Seconds()
		}
		rows = append(rows, row)
	}
	text := RenderTable([]string{"Packet", "Packets", links[0].name, links[1].name}, rows)
	text += "\nlarge packets win on strong links; at range their PER erases the gain — 60 B is the compromise (§5.3)\n"
	return &Result{ID: "ablation-packet", Title: "OTA packet-size trade-off", Text: text, Metrics: metrics}, nil
}

func newBenchNode(id uint16) *ota.Node {
	campus := testbed.NewCampus(int64(id) + 31)
	return campus.Nodes[0].OTA
}

// AblationCompression measures what miniLZO buys the OTA system: the same
// LoRa FPGA image shipped compressed versus stored.
func AblationCompression(cfg Config) (*Result, error) {
	design := fpga.LoRaTRXDesign(8)
	img := fpga.SynthBitstream(design)
	modes := []struct {
		name     string
		compress bool
	}{
		{"miniLZO blocks (§3.4)", true},
		{"stored (no compression)", false},
	}
	metrics := map[string]float64{}
	var rows [][]string
	for _, m := range modes {
		u, err := ota.BuildUpdateOptions(ota.TargetFPGA, img,
			ota.UpdateOptions{PacketSize: ota.DataPacketSize, Compress: m.compress})
		if err != nil {
			return nil, err
		}
		campus := testbed.NewCampus(cfg.Seed + 3)
		node := campus.Nodes[2]
		node.PMU.Ledger().Reset()
		sess := ota.NewSession(node.OTA, campus.RSSI(node), cfg.Seed+5)
		rep, err := sess.Program(u, design)
		if err != nil {
			return nil, err
		}
		energy := node.PMU.Ledger().Energy()
		rows = append(rows, []string{
			m.name,
			fmt.Sprintf("%.0f kB", float64(u.CompressedSize())/1024),
			fmt.Sprintf("%.0f s", rep.Duration.Seconds()),
			fmt.Sprintf("%.1f J", energy),
		})
		key := "stored"
		if m.compress {
			key = "lzo"
		}
		metrics[key+"_s"] = rep.Duration.Seconds()
		metrics[key+"_J"] = energy
	}
	text := RenderTable([]string{"Mode", "On-air bytes", "Update time", "Node energy"}, rows)
	text += fmt.Sprintf("\ncompression cuts update time %.1fx and node energy %.1fx\n",
		metrics["stored_s"]/metrics["lzo_s"], metrics["stored_J"]/metrics["lzo_J"])
	return &Result{ID: "ablation-compression", Title: "miniLZO vs raw transfer", Text: text, Metrics: metrics}, nil
}

// AblationBlockSize studies the §3.4 block-size choice: small blocks hurt
// the compression ratio, large blocks exceed the MCU's SRAM working set.
func AblationBlockSize(cfg Config) (*Result, error) {
	img := fpga.SynthBitstream(fpga.LoRaTRXDesign(8))
	// The MCU needs headroom beyond the block buffer: MAC state, radio
	// control and the decompressor's own working set (§5.2's 18% figure).
	const mcuReserve = 18 * mcu.SRAMSize / 100
	metrics := map[string]float64{}
	var rows [][]string
	for _, bs := range []int{5 * 1024, 15 * 1024, 30 * 1024, 60 * 1024} {
		blocks := lzo.CompressBlocks(img, bs)
		size := lzo.CompressedSize(blocks)
		feasible := bs+mcuReserve <= mcu.SRAMSize
		note := "fits SRAM"
		if !feasible {
			note = "exceeds SRAM with MAC resident"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d kB", bs/1024),
			fmt.Sprintf("%.1f kB", float64(size)/1024),
			note,
		})
		metrics[fmt.Sprintf("kB_%d", bs/1024)] = float64(size) / 1024
	}
	text := RenderTable([]string{"Block size", "Compressed image", "MCU feasibility"}, rows)
	text += "\n30 kB is the largest block that leaves the MAC resident in the 64 kB SRAM (§3.4)\n"
	return &Result{ID: "ablation-blocksize", Title: "Compression block size", Text: text, Metrics: metrics}, nil
}

// AblationRateAdaptation answers the §7 research question "Are there
// benefits of rate adaptation?": per-node uplink energy on the campus for
// fixed spreading factors versus ADR.
func AblationRateAdaptation(cfg Config) (*Result, error) {
	campus := testbed.NewCampus(cfg.Seed)
	const (
		bw       = 500e3
		payload  = 20
		uplinkTX = 0.0 // dBm: endpoints save energy on uplinks
		margin   = 3.0
	)
	strategies := []struct {
		name string
		key  string
		sf   func(rssi float64) int
	}{
		{"fixed SF7", "sf7", func(float64) int { return 7 }},
		{"fixed SF12", "sf12", func(float64) int { return 12 }},
		{"ADR (§7)", "adr", func(rssi float64) int {
			return lora.AdaptSF(rssi, bw, radio.SX1276NoiseFigureDB, margin)
		}},
	}
	metrics := map[string]float64{}
	var rows [][]string
	for _, s := range strategies {
		var totalEnergy float64
		delivered := 0
		for _, n := range campus.Nodes {
			// Uplink RSSI at the AP: node TX power replaces the AP's.
			rssi := campus.RSSI(n) - campus.APTXPowerDBm + uplinkTX
			sf := s.sf(rssi)
			p := lora.Params{SF: sf, BW: bw, CR: lora.CR45, PreambleLen: 8, SyncWord: 0x34,
				CRC: true, OSR: 1}
			per := lora.PacketErrorRate(p, payload, rssi, radio.SX1276NoiseFigureDB)
			if per > 0.5 {
				continue // link effectively dead at this rate
			}
			delivered++
			attempts := 1 / (1 - per)
			energy := p.TimeOnAir(payload).Seconds() * radio.TXPowerW(uplinkTX) * attempts
			totalEnergy += energy
		}
		mean := math.Inf(1)
		if delivered > 0 {
			mean = totalEnergy / float64(delivered) * 1e3 // mJ
		}
		rows = append(rows, []string{
			s.name,
			fmt.Sprintf("%d/%d", delivered, len(campus.Nodes)),
			fmt.Sprintf("%.2f mJ", mean),
		})
		metrics[s.key+"_delivered"] = float64(delivered)
		metrics[s.key+"_mJ"] = mean
	}
	text := RenderTable([]string{"Strategy", "Nodes delivered", "Mean energy per uplink"}, rows)
	text += "\nADR delivers every node at near-SF7 energy: rate adaptation pays (§7)\n"
	return &Result{ID: "ablation-adr", Title: "Rate adaptation benefit", Text: text, Metrics: metrics}, nil
}

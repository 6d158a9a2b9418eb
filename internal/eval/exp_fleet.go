package eval

import (
	"fmt"

	"github.com/uwsdr/tinysdr/internal/fleet"
)

// FleetScale sweeps the fleet campaign scheduler across fleet sizes,
// comparing the §7 broadcast+repair protocol against sequential unicast on
// fleet programming time and air bytes. Each fleet hangs off a single
// gateway (ShardSize = N), so the sweep measures the paper's literal claim:
// one transfer plus repair versus N sequential transfers.
func FleetScale(cfg Config) (*Result, error) {
	sizes := []int{20, 100, 500, 1000}
	if cfg.Quick {
		sizes = []int{20, 100}
	}

	run := func(n int, mode fleet.Mode) (*fleet.Result, error) {
		res, err := fleet.Run(fleet.Spec{
			Seed:      cfg.Seed,
			Nodes:     n,
			ShardSize: n,
			Mode:      mode,
			Workers:   cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		if res.Failed > 0 {
			return nil, fmt.Errorf("fleet: %s at N=%d left %d nodes unprogrammed", mode, n, res.Failed)
		}
		return res, nil
	}

	var rows [][]string
	var sBcast, sUni Series
	sBcast.Name = "broadcast"
	sUni.Name = "unicast"
	metrics := map[string]float64{}
	for _, n := range sizes {
		b, err := run(n, fleet.ModeBroadcast)
		if err != nil {
			return nil, err
		}
		u, err := run(n, fleet.ModeUnicast)
		if err != nil {
			return nil, err
		}
		speedup := u.FleetTime.Seconds() / b.FleetTime.Seconds()
		airRatio := float64(u.AirBytes) / float64(b.AirBytes)
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f s", b.FleetTime.Seconds()),
			fmt.Sprintf("%.0f s", u.FleetTime.Seconds()),
			fmt.Sprintf("%.1fx", speedup),
			fmt.Sprintf("%.0f kB", float64(b.AirBytes)/1e3),
			fmt.Sprintf("%.0f kB", float64(u.AirBytes)/1e3),
			fmt.Sprintf("%.1fx", airRatio),
		})
		sBcast.X = append(sBcast.X, float64(n))
		sBcast.Y = append(sBcast.Y, b.FleetTime.Seconds())
		sUni.X = append(sUni.X, float64(n))
		sUni.Y = append(sUni.Y, u.FleetTime.Seconds())
		metrics[fmt.Sprintf("broadcast_s_%d", n)] = b.FleetTime.Seconds()
		metrics[fmt.Sprintf("unicast_s_%d", n)] = u.FleetTime.Seconds()
		metrics[fmt.Sprintf("speedup_x_%d", n)] = speedup
		metrics[fmt.Sprintf("air_ratio_x_%d", n)] = airRatio
	}

	text := RenderXY("Fleet programming time vs fleet size (78 kB MCU image, one gateway)",
		"fleet size (nodes)", "fleet time (s)", []Series{sBcast, sUni}, 64, 14)
	text += "\n" + RenderTable(
		[]string{"N", "Broadcast", "Unicast", "Speedup", "Air (bcast)", "Air (uni)", "Air ratio"}, rows)
	text += "\nunicast fleet time is N sequential transfers; broadcast stays one shared transfer plus per-node announce and repair (§7)\n"
	return &Result{ID: "fleetscale", Title: "Fleet-scale broadcast vs unicast", Text: text, Metrics: metrics}, nil
}

package power

import (
	"fmt"

	"github.com/uwsdr/tinysdr/internal/sim"
)

// Domain identifies one of the seven power domains of Table 3.
type Domain int

// The tinySDR power domains (Table 3).
const (
	V1 Domain = iota // MCU — always on, TPS78218 LDO
	V2               // FPGA core 1.1 V — TPS62240
	V3               // FPGA 1.8 V I/O, flash — TPS62240
	V4               // FPGA 2.5 V — TPS62240
	V5               // I/Q radio, backbone radio, FPGA LVDS bank — SC195, programmable 1.8-3.6 V
	V6               // sub-GHz PA 3.5 V — TPS62080
	V7               // 2.4 GHz PA 3.0 V, microSD — TPS62240
	numDomains
)

// String returns the domain name as used in Table 3.
func (d Domain) String() string {
	if d < V1 || d >= numDomains {
		return fmt.Sprintf("Domain(%d)", int(d))
	}
	return [...]string{"V1", "V2", "V3", "V4", "V5", "V6", "V7"}[d]
}

// DomainInfo describes one row of Table 3 plus its regulator.
type DomainInfo struct {
	Domain     Domain
	Regulator  string
	VoltageV   float64 // nominal output voltage (V5 is programmable)
	Components []string
	// QuiescentA and ShutdownA are the regulator's quiescent and shutdown
	// currents, drawn from the battery rail.
	QuiescentA float64
	ShutdownA  float64
}

// BatteryVoltage is the nominal 3.7 V LiPo rail feeding all regulators.
const BatteryVoltage = 3.7

// converterLoss is the fractional input-power overhead of the switching
// regulators when delivering load power (≈92% efficiency). It is calibrated
// together with the component power constants against the paper's
// end-to-end measurements (Fig. 9, §5.2).
const converterLoss = 0.08

// boardLeakageW is the residual board-level draw (pull-ups, decoupling and
// PCB leakage, level shifting) present whenever the battery is connected.
// It is calibrated so that deep-sleep total lands on the paper's measured
// 30 µW (the BOM-ideal sum of sleep currents alone is ≈11 µW).
const boardLeakageW = 18.9e-6

// Domains returns the Table 3 power-domain inventory.
func Domains() []DomainInfo {
	return []DomainInfo{
		{V1, "TPS78218 (LDO)", 1.8, []string{"MCU"}, 0.45e-6, 0.45e-6},
		{V2, "TPS62240", 1.1, []string{"FPGA core"}, 25e-6, 0.1e-6},
		{V3, "TPS62240", 1.8, []string{"FPGA 1.8V I/O", "flash memory"}, 25e-6, 0.1e-6},
		{V4, "TPS62240", 2.5, []string{"FPGA 2.5V bank"}, 25e-6, 0.1e-6},
		{V5, "SC195 (adjustable)", 1.8, []string{"I/Q radio", "backbone radio", "FPGA LVDS bank"}, 28e-6, 1.0e-6},
		{V6, "TPS62080", 3.5, []string{"sub-GHz PA"}, 6e-6, 0.3e-6},
		{V7, "TPS62240", 3.0, []string{"2.4 GHz PA", "microSD"}, 25e-6, 0.1e-6},
	}
}

// PMU is the power management unit: it gates the seven domains and charges
// regulator overhead (quiescent or shutdown current plus conversion loss)
// to the energy ledger. The board runs in one of two domain states: V1
// alone (power-up and deep sleep) or every domain on.
//
// PMU implements Sink; component models report their draw through it so the
// conversion overhead stays consistent with the instantaneous load.
type PMU struct {
	ledger *Ledger
	awake  bool        // every domain on; otherwise V1 alone
	loads  []loadEntry // component draws in first-report order, excluding overhead items
}

// loadEntry is one component's last reported draw.
type loadEntry struct {
	component string
	watts     float64
}

// quiescentW is the regulators' draw from the battery with no load: index
// 0 with V1 alone on, index 1 with every domain on. Each sums the Table 3
// rows in domain order.
var quiescentW = [2]float64{quiescentDraw(false), quiescentDraw(true)}

// quiescentDraw sums the regulator quiescent or shutdown power over the
// Table 3 domains, V1 always on and the rest on only when awake.
func quiescentDraw(awake bool) float64 {
	var w float64
	for _, info := range Domains() {
		if info.Domain == V1 || awake {
			w += info.QuiescentA * BatteryVoltage
		} else {
			w += info.ShutdownA * BatteryVoltage
		}
	}
	return w
}

// NewPMU returns a PMU with only the always-on MCU domain (V1) enabled —
// the state the board powers up in — and board leakage charged.
func NewPMU(clock *sim.Clock) *PMU {
	p := &PMU{ledger: NewLedger(clock)}
	p.ledger.SetPower("board-leakage", boardLeakageW)
	p.refresh()
	return p
}

// Ledger exposes the underlying energy ledger.
func (p *PMU) Ledger() *Ledger { return p.ledger }

// SetPower implements Sink: components report their instantaneous draw here.
func (p *PMU) SetPower(component string, watts float64) {
	if watts < 0 {
		panic(fmt.Sprintf("power: negative draw %v W for %s", watts, component))
	}
	i := 0
	for i < len(p.loads) && p.loads[i].component != component {
		i++
	}
	if i == len(p.loads) {
		p.loads = append(p.loads, loadEntry{component: component})
	}
	p.loads[i].watts = watts
	p.ledger.SetPower(component, watts)
	p.refresh()
}

// Sleep gates every domain except V1, the deep-sleep state of §5.1.
// Component models must separately drop to their sleep draw.
func (p *PMU) Sleep() {
	p.awake = false
	p.refresh()
}

// WakeAll enables every domain.
func (p *PMU) WakeAll() {
	p.awake = true
	p.refresh()
}

// refresh recomputes the regulator-overhead ledger entry from the domain
// state and the current component load. The load is summed in a fixed
// order: float addition is not associative.
func (p *PMU) refresh() {
	overhead := quiescentW[0]
	if p.awake {
		overhead = quiescentW[1]
	}
	var load float64
	for _, l := range p.loads {
		load += l.watts
	}
	overhead += load * converterLoss
	p.ledger.SetPower("regulators", overhead)
}

package eval

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"github.com/uwsdr/tinysdr/internal/phy"
)

func TestCoexistenceMetricsPlausible(t *testing.T) {
	r := runExp(t, "coexistence")
	// The LoRa-on-LoRa knee must sit in the neighborhood of the receiver
	// noise floor (§6 power-control story: interference starts to matter
	// when it rivals noise).
	if got := r.Metrics["coex_lora_knee_dBm"]; got < -127 || got > -105 {
		t.Errorf("LoRa-on-LoRa knee = %.0f dBm, want near the noise floor", got)
	}
	// Co-channel interference at -108 dBm (10 dB over the victim) must
	// cripple the link.
	if got := r.Metrics["coex_offset_cochannel_per"]; got < 0.5 {
		t.Errorf("co-channel PER = %.2f, want >= 0.5", got)
	}
	// A short BLE beacon must hurt less than a full-length LoRa packet at
	// the 50% level: its p50 power is higher (or never reached).
	if r.Metrics["coex_ble_p50_dBm"] < r.Metrics["coex_lora_p50_dBm"] {
		t.Errorf("BLE p50 %.0f dBm below LoRa p50 %.0f dBm; short bursts should hurt less",
			r.Metrics["coex_ble_p50_dBm"], r.Metrics["coex_lora_p50_dBm"])
	}
}

func TestMobilityKneeAtHalfBinDoppler(t *testing.T) {
	r := runExp(t, "mobility")
	if got := r.Metrics["mob_per_static"]; got > 0.35 {
		t.Errorf("static PER = %.2f, want a mostly working link", got)
	}
	// The PER cliff must land within one sweep step of the speed whose
	// Doppler is half a chirp bin (~80 m/s at SF8/BW125, 915 MHz).
	knee, halfBin := r.Metrics["mob_knee_mps"], r.Metrics["mob_halfbin_mps"]
	if math.Abs(knee-halfBin) > 20 {
		t.Errorf("mobility knee %.0f m/s, want within 20 of the half-bin speed %.0f", knee, halfBin)
	}
}

func TestScenarioExperimentPenalty(t *testing.T) {
	r := runExp(t, "scenario")
	// The composed default (Rician fading + CFO + drift) must cost
	// sensitivity versus clean AWGN, and the clean curve must still fail
	// below sensitivity.
	if got := r.Metrics["scn_penalty_dB"]; got < 0 {
		t.Errorf("scenario penalty = %.1f dB, want >= 0", got)
	}
}

// TestScenarioExperimentProtocolGeneric runs the composed-scenario RSSI
// sweep with every registered PHY as the victim — the -phy flag's
// contract: any protocol in the registry drives the same Link pipeline
// with its own sensitivity and noise anchors.
func TestScenarioExperimentProtocolGeneric(t *testing.T) {
	e, ok := ByID("scenario")
	if !ok {
		t.Fatal("scenario experiment not registered")
	}
	for _, name := range phy.Names() {
		cfg := quickCfg()
		cfg.PHY = name
		r, err := e.Run(cfg)
		if err != nil {
			t.Fatalf("%s victim: %v", name, err)
		}
		// The clean curve must anchor near the modem's own sensitivity:
		// its 50%-PER point sits inside the swept ±(4..14) dB margin
		// window around it.
		sens := r.Metrics["scn_sens_dBm"]
		p50 := r.Metrics["clean_p50_dBm"]
		if p50 < sens-6 || p50 > sens+16 {
			t.Errorf("%s: clean 50%%-PER at %.1f dBm, sensitivity anchor %.1f dBm", name, p50, sens)
		}
		if r.Metrics["scn_penalty_dB"] < 0 {
			t.Errorf("%s: composed penalty %.1f dB negative", name, r.Metrics["scn_penalty_dB"])
		}
	}
	cfg := quickCfg()
	cfg.PHY = "wifi"
	if _, err := e.Run(cfg); err == nil {
		t.Error("unregistered -phy accepted")
	}
}

func TestScenarioExperimentRejectsBadSpec(t *testing.T) {
	e, ok := ByID("scenario")
	if !ok {
		t.Fatal("scenario experiment not registered")
	}
	cfg := quickCfg()
	cfg.Scenario = "fading=unobtainium"
	if _, err := e.Run(cfg); err == nil {
		t.Error("bad -scenario spec accepted")
	}
	// The grammar has no moving-link term: a moving endpoint would pin
	// the link budget to a trajectory and silently flatten the RSSI
	// sweep, so moving links are the mobility experiment's job.
	cfg.Scenario = "speed=30"
	if _, err := e.Run(cfg); err == nil {
		t.Error("speed= spec accepted by the RSSI sweep")
	}
}

// TestScenarioSweepsDeterministicAcrossWorkers is the satellite acceptance
// test: the scenario-engine sweeps, serialized exactly as the CLI's
// -bench-json output serializes them, must be byte-for-byte identical at 1
// and 8 workers — PR 1's determinism guarantee extended to composed
// channels (fading draws, CFO jitter, interferer alignment, shadowing).
func TestScenarioSweepsDeterministicAcrossWorkers(t *testing.T) {
	for _, id := range []string{"coexistence", "mobility", "scenario"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		var wantJSON []byte
		var wantText string
		for _, workers := range []int{1, 8} {
			r, err := e.Run(Config{Quick: true, Seed: 1, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", id, workers, err)
			}
			got, err := json.Marshal(r.Metrics)
			if err != nil {
				t.Fatalf("%s: metrics not JSON-serializable: %v", id, err)
			}
			if workers == 1 {
				wantJSON, wantText = got, r.Text
				continue
			}
			if !bytes.Equal(got, wantJSON) {
				t.Errorf("%s: metrics JSON differs between 1 and %d workers:\n  1: %s\n  %d: %s",
					id, workers, wantJSON, workers, got)
			}
			if r.Text != wantText {
				t.Errorf("%s: rendered text differs between 1 and %d workers", id, workers)
			}
		}
	}
}

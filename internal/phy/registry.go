package phy

import (
	"fmt"
	"sort"

	"github.com/uwsdr/tinysdr/internal/backscatter"
	"github.com/uwsdr/tinysdr/internal/ble"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/radio"
)

// DefaultBLESPS is the registry BLE modem's oversampling: 4 samples per
// symbol matches the AT86RF215's 4 MHz I/Q interface at 1 Mbps.
const DefaultBLESPS = 4

// registry maps each platform protocol to the builder of its canonical
// modem, configured against its calibrated radio profile. Importing phy is
// enough to make every platform PHY available to the scenario grammar and
// the -phy experiment selection. The table is read-only after package
// initialization, so concurrent lookups need no lock.
//
// Builders must be pure: every call returns a fresh, identically-configured
// modem, so worker pools can build per-goroutine instances that behave
// bit-identically.
var registry = map[string]func() (Modem, error){
	"lora": func() (Modem, error) {
		// The paper's case-study configuration against the SX1276-class
		// chain it is calibrated to (-126 dBm at SF8/BW125).
		return lora.NewModem(lora.DefaultParams(), radio.SX1276Profile())
	},
	"ble": func() (Modem, error) {
		// The CC2650 chain of Fig. 12 (-94 dBm beacon sensitivity).
		return ble.NewModem(DefaultBLESPS, radio.CC2650Profile())
	},
	"backscatter": func() (Modem, error) {
		// The §7 subcarrier reader on the platform's own I/Q chain.
		return backscatter.NewModem(backscatter.DefaultConfig(), radio.AT86RF215Profile())
	},
}

// Names returns every registered protocol name in sorted order — the
// deterministic iteration order sweeps and CLIs must use, independent of
// map iteration order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Registered reports whether a protocol name is known.
func Registered(name string) bool {
	_, ok := registry[name]
	return ok
}

// New builds the named protocol's default modem.
func New(name string) (Modem, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("phy: unknown protocol %q (registered: %v)", name, Names())
	}
	return b()
}

package scenario

import (
	"math"
	"strings"
	"testing"

	"github.com/uwsdr/tinysdr/internal/iq"
	"github.com/uwsdr/tinysdr/internal/lora"
	"github.com/uwsdr/tinysdr/internal/phy"
)

func TestParseFull(t *testing.T) {
	spec, err := Parse("fading=rician:10:3,cfo=200,cfojitter=50,drift=20,interferer=lora:-110:25000")
	if err != nil {
		t.Fatal(err)
	}
	if spec.FadingKind != "rician" || spec.FadingKdB != 10 || spec.FadingTaps != 3 {
		t.Errorf("fading = %+v", spec)
	}
	if spec.CFOHz != 200 || spec.CFOJitterHz != 50 || spec.DriftPPM != 20 {
		t.Errorf("oscillator = %+v", spec)
	}
	if spec.Interferer != "lora" || spec.InterfererDBm != -110 || spec.InterfererFreqHz != 25000 {
		t.Errorf("interferer = %+v", spec)
	}
}

// validScenarios and invalidScenarios seed TestParseErrors, the round
// trip tests and FuzzParse.
var validScenarios = []string{
	"",
	"clean",
	"fading=rician:10:3,cfo=200,cfojitter=50,drift=20,interferer=lora:-110:25000",
	"fading=rayleigh:2,drift=5,interferer=ble:-95",
	"fading=rician:12,cfojitter=50",
	"dropout=0:5",
	"fading=rician:3:2,fading=rayleigh",
}

var invalidScenarios = []string{
	"fading=weird",
	"interferer=wifi:-90",
	"interferer=lora", // missing power
	"cfo=abc",
	"nonsense=1",
	"fading=rician", // missing K
	"cfo=200:50",    // trailing arguments must error, not drop
	"fading=rayleigh:3:9",
	"interferer=lora:-100:0:7",
	"clean,cfo=200", // clean is a whole spec, not a term
	// Moving links come from testbed.Campus.LinkScenario; the grammar
	// has no speed or mobile term.
	"speed=30",
	"speed=30:60",
	"mobile",
	"mobile=false",
	"fading=rayleigh:64,dropout=0.25:12,mobile",
	// Non-finite numbers.
	"fading=rician:NaN",
	"cfo=Inf",
	"drift=-Inf",
	"dropout=NaN",
	"interferer=lora:-100:NaN",
	"cfo=1e400",
	// Tap counts must be integers in [1, 64].
	"fading=rayleigh:2.7",
	"fading=rayleigh:0",
	"fading=rayleigh:-3",
	"fading=rayleigh:NaN",
	"fading=rayleigh:1e9",
	"fading=rician:6:65",
}

func TestParseErrors(t *testing.T) {
	for _, bad := range invalidScenarios {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestParseEmptyAndRoundTrip(t *testing.T) {
	spec, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	if spec.String() != "clean" {
		t.Errorf("empty spec renders %q", spec.String())
	}
	clean, err := Parse("clean")
	if err != nil {
		t.Fatalf("the empty spec's rendering is rejected: %v", err)
	}
	if *clean != *spec {
		t.Errorf("clean parses to %+v, the empty spec to %+v", clean, spec)
	}
	spec, err = Parse("fading=rayleigh:2,drift=5,interferer=ble:-95")
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(spec.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", spec.String(), err)
	}
	if *back != *spec {
		t.Errorf("round trip: %+v != %+v", back, spec)
	}
}

// FuzzParse holds the grammar to a fixpoint: an accepted spec renders to
// a string that parses back to an equal Spec and renders the same again.
func FuzzParse(f *testing.F) {
	for _, s := range validScenarios {
		f.Add(s)
	}
	for _, s := range invalidScenarios {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := Parse(in)
		if err != nil {
			return
		}
		out := spec.String()
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its rendering %q is rejected: %v", in, out, err)
		}
		if *back != *spec {
			t.Fatalf("Parse(%q) = %+v, but its rendering %q parses to %+v", in, spec, out, back)
		}
		if again := back.String(); again != out {
			t.Fatalf("Parse(%q) renders %q, which re-renders as %q", in, out, again)
		}
	})
}

func TestResamplePreservesToneFrequency(t *testing.T) {
	const src = 500e3
	const dst = 125e3
	n := 4096
	sig := make(iq.Samples, n)
	for i := range sig {
		ang := 2 * math.Pi * 10e3 / src * float64(i)
		sig[i] = complex(math.Cos(ang), math.Sin(ang))
	}
	out := Resample(sig, src, dst)
	if got, want := len(out), n/4; got != want {
		t.Fatalf("resampled length %d, want %d", got, want)
	}
	// The 10 kHz tone must land at 10 kHz of the new rate: measure by
	// average phase increment over the filter's settled region.
	var acc float64
	for i := 256; i < len(out); i++ {
		p := out[i] * complex(real(out[i-1]), -imag(out[i-1]))
		acc += math.Atan2(imag(p), real(p))
	}
	gotHz := acc / float64(len(out)-256) / (2 * math.Pi) * dst
	if math.Abs(gotHz-10e3) > 100 {
		t.Errorf("tone at %v Hz after resample, want 10000", gotHz)
	}
}

func TestInterfererWaveformBuilders(t *testing.T) {
	// Every registered PHY must synthesize a usable interference waveform
	// at a foreign victim rate — the registry is the grammar's source of
	// truth, so a new protocol registration is automatically a new
	// interferer kind.
	for _, kind := range phy.Names() {
		w, err := DefaultInterfererWaveform(kind, 125e3)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(w) == 0 || w.Power() == 0 {
			t.Errorf("empty %s interferer waveform", kind)
		}
	}
	if _, err := DefaultInterfererWaveform("wifi", 125e3); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestParseAcceptsAnyRegisteredInterferer(t *testing.T) {
	for _, kind := range phy.Names() {
		spec, err := Parse("interferer=" + kind + ":-100")
		if err != nil {
			t.Fatalf("%s rejected: %v", kind, err)
		}
		sc, err := spec.Build(Link{SampleRate: 125e3, RSSIdBm: -110, FloorDBm: -117})
		if err != nil {
			t.Fatalf("%s build: %v", kind, err)
		}
		if want := "gain→interferer(" + kind + ")→noise"; sc.String() != want {
			t.Errorf("%s composition = %q, want %q", kind, sc.String(), want)
		}
	}
}

func TestBuildComposesExpectedStages(t *testing.T) {
	spec, err := Parse("fading=rician:10,cfo=200,drift=20,interferer=lora:-110")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Build(Link{SampleRate: 125e3, RSSIdBm: -118, FloorDBm: -116})
	if err != nil {
		t.Fatal(err)
	}
	want := "gain→fading→cfo→interferer(lora)→noise"
	if got := sc.String(); got != want {
		t.Errorf("composition = %q, want %q", got, want)
	}
	if _, err := spec.Build(Link{}); err == nil {
		t.Error("zero sample rate accepted")
	}
}

// TestBuildIsAStaticLink holds every accepted spec to a fixed received
// power: the chain starts at the Gain stage and ends at receiver noise.
func TestBuildIsAStaticLink(t *testing.T) {
	for _, in := range validScenarios {
		spec, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		sc, err := spec.Build(Link{SampleRate: 125e3, RSSIdBm: -110, FloorDBm: -117})
		if err != nil {
			t.Fatalf("Build(%q): %v", in, err)
		}
		if got := sc.String(); !strings.HasPrefix(got, "gain") || !strings.HasSuffix(got, "noise") {
			t.Errorf("Build(%q) composes %q, want gain→…→noise", in, got)
		}
	}
}

func TestBuildUsesPrebuiltInterfererWave(t *testing.T) {
	spec, err := Parse("interferer=lora:-100")
	if err != nil {
		t.Fatal(err)
	}
	// A tiny prebuilt waveform must be used as-is: the interference
	// region in the output is exactly its length.
	wave := make(iq.Samples, 32)
	for i := range wave {
		wave[i] = 1
	}
	sc, err := spec.Build(Link{SampleRate: 125e3, RSSIdBm: -120, FloorDBm: -200, InterfererWave: wave})
	if err != nil {
		t.Fatal(err)
	}
	sc.Reset(1, 0)
	out := sc.Apply(make(iq.Samples, 4096))
	strong := 0
	for _, x := range out {
		// Interference at -100 dBm is ~1e-5 amplitude; the -200 dBm
		// noise floor sits five orders of magnitude below it.
		if real(x)*real(x)+imag(x)*imag(x) > 1e-12 {
			strong++
		}
	}
	if strong != len(wave) {
		t.Errorf("interference spans %d samples, want the prebuilt %d", strong, len(wave))
	}
}

// TestScenarioEndToEndLoRaDecode closes the loop through the real receive
// path: a LoRa packet through a mild composed scenario must still decode.
func TestScenarioEndToEndLoRaDecode(t *testing.T) {
	p := lora.DefaultParams()
	mod, err := lora.NewModulator(p)
	if err != nil {
		t.Fatal(err)
	}
	demod, err := lora.NewDemodulator(p)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{0xA5, 0x5A, 0x3C}
	sig, err := mod.Modulate(payload)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse("fading=rician:12,cfo=100,drift=10,interferer=ble:-130")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Build(Link{SampleRate: p.SampleRate(), RSSIdBm: -110, FloorDBm: -116.0})
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	const packets = 10
	for k := 0; k < packets; k++ {
		sc.Reset(1, k)
		pkt, err := demod.Receive(sc.Apply(sig))
		if err == nil && pkt.CRCOK && string(pkt.Payload) == string(payload) {
			ok++
		}
	}
	// -110 dBm is 16 dB above sensitivity; mild impairments must leave
	// the large majority of packets intact.
	if ok < packets*7/10 {
		t.Errorf("only %d/%d packets decoded under mild composed scenario", ok, packets)
	}
}

func TestParseDropout(t *testing.T) {
	spec, err := Parse("dropout=0.25:30")
	if err != nil {
		t.Fatal(err)
	}
	if spec.DropoutProb != 0.25 || spec.DropoutDepthDB != 30 {
		t.Errorf("dropout = %+v", spec)
	}
	// Depth optional: the stage default applies downstream.
	spec, err = Parse("dropout=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.DropoutProb != 0.1 || spec.DropoutDepthDB != 0 {
		t.Errorf("dropout = %+v", spec)
	}
	for _, bad := range []string{
		"dropout",          // no value
		"dropout=2",        // probability out of range
		"dropout=-0.1",     // negative
		"dropout=0.1:0",    // zero depth must be spelled by omission
		"dropout=0.1:-3",   // negative depth
		"dropout=0.1:30:4", // trailing argument
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	// Round trip through String, with and without the explicit depth.
	for _, in := range []string{"dropout=0.25:30", "dropout=0.1", "fading=rayleigh:2,dropout=0.5:20"} {
		spec, err := Parse(in)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(spec.String())
		if err != nil || *back != *spec {
			t.Errorf("round trip %q -> %q: %+v err %v", in, spec.String(), back, err)
		}
	}
}

func TestBuildComposesDropout(t *testing.T) {
	spec, err := Parse("interferer=lora:-110,dropout=0.3:25")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Build(Link{SampleRate: 125e3, RSSIdBm: -110, FloorDBm: -117})
	if err != nil {
		t.Fatal(err)
	}
	// After the signal path, before receiver noise: the signal vanishes in
	// the burst but the noise floor persists.
	if want := "gain→interferer(lora)→dropout→noise"; sc.String() != want {
		t.Errorf("composition = %q, want %q", sc.String(), want)
	}
}

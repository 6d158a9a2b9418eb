package phy

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/uwsdr/tinysdr/internal/channel"
	"github.com/uwsdr/tinysdr/internal/iq"
)

// errDevice marks Source/Sink I/O failures inside the pipeline. Probe and
// Run propagate these as hard errors — a truncated trace or a full disk is
// a harness problem, never a packet loss.
var errDevice = errors.New("phy: device I/O")

// Link binds a TX modem, a composed channel scenario and an RX modem into
// one reproducible pipeline: modulate → scenario → demodulate. Every
// packet's channel randomness is a fixed function of (Seed, packet index),
// so a Link measurement is bit-identical wherever it runs — the same
// determinism contract the eval sweeps are built on.
//
// A Link owns waveform scratch and wraps single-goroutine modems, so it is
// NOT safe for concurrent use; trial-parallel sweeps give each worker its
// own Link.
type Link struct {
	tx, rx   Modem
	scenario *channel.Scenario
	seed     int64
	sent     int

	// src replaces the modulate→scenario front half when non-nil: packet
	// waveforms come from the device (a stored trace, later hardware)
	// instead of the live pipeline. tap observes (and may quantize) every
	// received waveform before demodulation — the capture seam.
	src Source
	tap Sink

	txBuf   iq.Samples
	txValid bool   // txBuf holds the waveform for lastPld
	lastPld []byte // payload txBuf currently encodes
	rxBuf   iq.Samples
	pld     []byte
}

// Stats summarizes one Link measurement run.
type Stats struct {
	// Packets is how many packets were pushed through the pipeline.
	Packets int
	// Failures counts packets that failed to demodulate or decoded to the
	// wrong payload.
	Failures int
	// PER is Failures/Packets.
	PER float64
	// RSSIdBm is the mean received power measured at the scenario output
	// across the run (not the configured budget: fading, interference and
	// noise all land in it).
	RSSIdBm float64
}

// Open binds the pipeline. The TX and RX modems must agree on the sample
// rate (the scenario operates at that common rate); a nil scenario means an
// identity channel. Seed drives all channel randomness.
func Open(tx, rx Modem, sc *channel.Scenario, seed int64) (*Link, error) {
	if tx == nil || rx == nil {
		return nil, fmt.Errorf("phy: link needs a TX and an RX modem")
	}
	if tx.SampleRate() != rx.SampleRate() {
		return nil, fmt.Errorf("phy: TX %s at %g Hz vs RX %s at %g Hz — resample one side first",
			tx.Name(), tx.SampleRate(), rx.Name(), rx.SampleRate())
	}
	if sc == nil {
		sc = channel.NewScenario()
	}
	return &Link{tx: tx, rx: rx, scenario: sc, seed: seed}, nil
}

// OpenReplay binds a Source to an RX modem: packet k comes from the
// device instead of the live modulator and channel, and demodulation,
// loss accounting and power measurement run exactly as in a live Link.
// The source and modem must agree on the sample rate. Replay needs no
// seed — every waveform is literal — so runs are deterministic by
// construction at any worker count.
func OpenReplay(src Source, rx Modem) (*Link, error) {
	if src == nil || rx == nil {
		return nil, fmt.Errorf("phy: replay link needs a source and an RX modem")
	}
	if src.SampleRate() != rx.SampleRate() {
		return nil, fmt.Errorf("phy: source %s at %g Hz vs RX %s at %g Hz — resample one side first",
			src.Name(), src.SampleRate(), rx.Name(), rx.SampleRate())
	}
	return &Link{rx: rx, src: src, scenario: channel.NewScenario()}, nil
}

// Tap installs a Sink on the channel output: every subsequent packet's
// received waveform is handed to it (which may quantize in place — see
// Sink) before demodulation. A nil sink removes the tap. The sink must
// match the link's RX sample rate.
func (l *Link) Tap(s Sink) error {
	if s != nil && s.SampleRate() != l.rx.SampleRate() {
		return fmt.Errorf("phy: tap %s at %g Hz vs RX %s at %g Hz",
			s.Name(), s.SampleRate(), l.rx.Name(), l.rx.SampleRate())
	}
	l.tap = s
	return nil
}

// Rebind swaps the channel scenario and seed while keeping the modems,
// scratch buffers and cached TX waveform: a sweep rebinds its worker's
// Link per grid point instead of reopening, so the victim packet is
// synthesized once per worker, not once per point. Send's packet counter
// restarts with the new binding.
func (l *Link) Rebind(sc *channel.Scenario, seed int64) {
	if sc == nil {
		sc = channel.NewScenario()
	}
	l.scenario = sc
	l.seed = seed
	l.sent = 0
}

// Send pushes one packet through the pipeline and returns the payload the
// RX modem recovered (valid until the next call). Each call advances the
// channel to the next packet index, so a sequence of Sends is
// deterministic in call order.
func (l *Link) Send(payload []byte) ([]byte, error) {
	got, _, err := l.transfer(l.sent, payload)
	l.sent++
	return got, err
}

// ensureWave fills txBuf with the payload's waveform. Modulation is
// deterministic, so a repeated payload reuses the cached waveform — a Run
// sweep synthesizes its packet once, not once per trial.
func (l *Link) ensureWave(payload []byte) error {
	if l.txValid && bytes.Equal(payload, l.lastPld) {
		return nil
	}
	l.txValid = false
	if l.src == nil {
		wave, err := l.tx.ModulateInto(l.txBuf, payload)
		if err != nil {
			return err
		}
		l.txBuf = wave
	}
	// A replay link never modulates: the payload is only the comparison
	// baseline for loss accounting.
	l.lastPld = append(l.lastPld[:0], payload...)
	l.txValid = true
	return nil
}

// transfer runs packet index k: modulate, apply the scenario for (seed, k),
// demodulate. All buffers are Link scratch; the returned rx waveform stays
// valid until the next call.
func (l *Link) transfer(k int, payload []byte) (got []byte, rx iq.Samples, err error) {
	if err := l.ensureWave(payload); err != nil {
		return nil, nil, err
	}
	return l.transferCached(k)
}

// transferCached runs packet index k against the already-ensured waveform.
// It never reads the caller's payload slice, so a payload that aliases the
// demod scratch (e.g. the slice a previous Send returned) cannot be
// clobbered mid-run.
func (l *Link) transferCached(k int) (got []byte, rx iq.Samples, err error) {
	if l.src != nil {
		// Replay: the stored waveform already includes the channel and
		// the capture quantization. Reading past the trace is a harness
		// bug, surfaced as an error rather than counted as packet loss.
		if k < 0 || k >= l.src.Packets() {
			return nil, nil, fmt.Errorf("%w: replay packet %d outside trace of %d", errDevice, k, l.src.Packets())
		}
		if rx, err = l.src.ReadPacket(k); err != nil {
			return nil, nil, fmt.Errorf("%w: replay packet %d: %w", errDevice, k, err)
		}
	} else {
		wave := l.txBuf
		if cap(l.rxBuf) < len(wave) {
			l.rxBuf = make(iq.Samples, len(wave))
		}
		l.scenario.Reset(l.seed, k)
		rx = l.scenario.ApplyInto(l.rxBuf[:len(wave)], wave)
	}
	if l.tap != nil {
		// The tap is the ADC model: it may quantize rx in place, and the
		// demodulator below sees what the tap left — which is exactly what
		// a replay of the capture will decode. A tap failure is an I/O
		// error (disk, encode), not a channel loss.
		if err := l.tap.WritePacket(k, rx); err != nil {
			return nil, rx, fmt.Errorf("%w: tap packet %d: %w", errDevice, k, err)
		}
	}
	got, err = l.rx.DemodulateFrom(l.pld, rx)
	if err != nil {
		return nil, rx, err
	}
	l.pld = got
	return got, rx, nil
}

// Probe pushes packet index k of payload through the pipeline and reports
// whether it was lost: a demodulation error or a recovered payload that
// differs from the transmitted one counts as a loss, exactly as Run counts
// failures. Because the channel draw is a fixed function of (seed, k), a
// sequence of Probes for k = 0..n-1 reproduces the first n packets of
// Run(payload, m) for any m >= n — the prefix property the adaptive
// sequential-stopping sweeps rely on. A payload the TX modem cannot
// modulate is returned as an error, not a loss.
func (l *Link) Probe(payload []byte, k int) (lost bool, err error) {
	if err := l.ensureWave(payload); err != nil {
		return false, err
	}
	got, _, err := l.transferCached(k)
	if errors.Is(err, errDevice) {
		return false, err
	}
	return err != nil || !bytes.Equal(got, l.lastPld), nil
}

// Run measures the link: the payload is sent packets times (packet indices
// 0..packets-1, independent of any prior Sends), and the PER and mean
// received power are returned. A packet counts as failed when demodulation
// errors or the recovered payload differs from the transmitted one; a
// payload the TX modem cannot modulate at all is the caller's error, not a
// channel loss, and is returned as such.
func (l *Link) Run(payload []byte, packets int) (Stats, error) {
	if packets <= 0 {
		return Stats{}, fmt.Errorf("phy: run needs at least one packet, got %d", packets)
	}
	if l.src != nil && packets > l.src.Packets() {
		return Stats{}, fmt.Errorf("phy: run of %d packets exceeds trace of %d", packets, l.src.Packets())
	}
	if err := l.ensureWave(payload); err != nil {
		return Stats{}, err
	}
	st := Stats{Packets: packets}
	var rxPowerMilliwatts float64
	for k := 0; k < packets; k++ {
		// Compare against the Link-owned snapshot (l.lastPld), never the
		// caller's slice: if that slice aliases the demod scratch, a
		// decode would overwrite the comparison baseline in place.
		got, rx, err := l.transferCached(k)
		if errors.Is(err, errDevice) {
			return Stats{}, err
		}
		if err != nil || !bytes.Equal(got, l.lastPld) {
			st.Failures++
		}
		rxPowerMilliwatts += rx.Power()
	}
	st.PER = float64(st.Failures) / float64(packets)
	st.RSSIdBm = iq.MilliwattsToDBm(rxPowerMilliwatts / float64(packets))
	return st, nil
}

package lora

import (
	"errors"

	"github.com/uwsdr/tinysdr/internal/dsp"
	"github.com/uwsdr/tinysdr/internal/iq"
)

// Demodulator is the Fig. 6b LoRa demodulator: 14-tap FIR low-pass, dechirp
// by a locally generated reference (Complex Multiplier), FFT, and peak
// detection (Symbol Detector), followed by the transport decode chain.
//
// A Demodulator owns a scratch arena sized to one symbol so the per-window
// pipeline (dechirp → FFT → magnitudes → fold) runs with zero heap
// allocations. It is therefore NOT safe for concurrent use; give each
// goroutine its own Demodulator (construction is deterministic, so all
// copies behave identically).
type Demodulator struct {
	p      Params
	up     iq.Samples // base upchirp reference
	down   iq.Samples // base downchirp reference
	fir    *dsp.FIR
	symLen int
	plan   *dsp.FFTPlan

	// Scratch arena, reused across windows.
	de     iq.Samples // dechirped symbol FFT, symLen
	folded []float64  // folded decision bins, NumChips
	filt   iq.Samples // FIR output, grown to the largest signal seen
}

// preambleDetectRatio is the peak-to-mean FFT power ratio above which a
// dechirped window counts as a preamble tone. It trades false preamble
// locks against sensitivity; 8 keeps the false-positive rate on pure noise
// below 1e-3 per window while detecting preambles below the demodulation
// SNR limit.
const preambleDetectRatio = 8.0

// minPreambleWindows is how many consecutive stable windows declare a
// preamble. The scan sees PreambleLen-1 full windows in the worst
// alignment; 5 works for the standard 8-symbol preamble and up.
const minPreambleWindows = 5

// Packet is a received LoRa frame.
type Packet struct {
	// Payload is the decoded payload.
	Payload []byte
	// Header is the decoded explicit header.
	Header Header
	// CRCOK reports whether the payload CRC verified (true when absent).
	CRCOK bool
	// FECOK reports whether every codeword decoded without uncorrectable
	// errors.
	FECOK bool
	// StartSample is the estimated index of the preamble start within the
	// buffer handed to Receive.
	StartSample int
}

// NewDemodulator returns a demodulator for the given parameters. The
// references are always generated on the exact (ideal) datapath: the
// receiver's numeric precision is set by the FFT, not the TX LUT.
func NewDemodulator(p Params) (*Demodulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	gen := p.chirpGen()
	gen.Ideal = true
	d := &Demodulator{
		p:      p,
		up:     gen.Upchirp(0),
		down:   gen.Downchirp(),
		symLen: gen.SymbolLen(),
		plan:   dsp.NewFFTPlan(gen.SymbolLen()),
		de:     make(iq.Samples, gen.SymbolLen()),
		folded: make([]float64, p.NumChips()),
	}
	if p.OSR > 1 {
		// The paper's 14-tap FIR low-pass suppresses out-of-band noise
		// ahead of the oversampled dechirp.
		d.fir = dsp.NewLowpass(14, 0.5/float64(p.OSR)*0.9)
	}
	return d, nil
}

// Filter applies the front-end FIR (a no-op at OSR 1, where the signal is
// critically sampled). The returned buffer is the demodulator's scratch:
// it stays valid until the next Filter/Receive call on this Demodulator.
func (d *Demodulator) Filter(sig iq.Samples) iq.Samples {
	if d.fir == nil {
		return sig
	}
	if cap(d.filt) < len(sig) {
		d.filt = make(iq.Samples, len(sig))
	}
	return d.fir.FilterInto(d.filt[:len(sig)], sig)
}

// demodWindow dechirps one symbol-length window against the upchirp
// reference and returns the detected shift, its folded peak power, and the
// mean folded bin power. The whole pipeline is two fused passes
// (DechirpTransformInto, then FoldPeakInto) over the scratch arena: zero
// heap allocations per call.
func (d *Demodulator) demodWindow(w iq.Samples) (shift int, peak, mean float64) {
	d.plan.DechirpTransformInto(d.de, w, d.up)
	shift, peak, sum := dsp.FoldPeakInto(d.folded, d.de)
	return shift, peak, sum / float64(len(d.folded))
}

// downPeak dechirps a window against the downchirp reference, returning the
// folded peak power — used for SFD detection (the up/down comparison of
// §4.1). The fold makes the comparison symmetric with demodWindow's upchirp
// peak: at OSR > 1 both candidates sum their two image bins instead of only
// the upchirp side (the old PeakBin rescan read single unfolded bins).
// Like demodWindow it runs in the scratch arena.
func (d *Demodulator) downPeak(w iq.Samples) float64 {
	d.plan.DechirpTransformInto(d.de, w, d.down)
	_, p, _ := dsp.FoldPeakInto(d.folded, d.de)
	return p
}

// DemodAlignedSymbols demodulates a stream of symbol-aligned raw chirps
// (no framing), as the chirp-symbol-error-rate experiments do.
func (d *Demodulator) DemodAlignedSymbols(sig iq.Samples) []int {
	return d.DemodAlignedSymbolsInto(make([]int, 0, len(sig)/d.symLen), sig)
}

// DemodAlignedSymbolsInto is DemodAlignedSymbols writing into caller
// scratch: dst is truncated and appended to, so a capacity-sized dst makes
// the whole aligned demod loop allocation-free — the contract the composed
// channel-scenario sweeps rely on.
func (d *Demodulator) DemodAlignedSymbolsInto(dst []int, sig iq.Samples) []int {
	sig = d.Filter(sig)
	n := len(sig) / d.symLen
	dst = dst[:0]
	for i := 0; i < n; i++ {
		shift, _, _ := d.demodWindow(sig[i*d.symLen : (i+1)*d.symLen])
		//lint:allocok appends into caller capacity; TestDemodAlignedSymbolsZeroAllocs pins 0 allocs/op
		dst = append(dst, shift)
	}
	return dst
}

// chipDist is the cyclic distance between two shifts in chips.
func (d *Demodulator) chipDist(a, b int) int {
	n := d.p.NumChips()
	diff := (a - b + n) % n
	if diff > n/2 {
		diff = n - diff
	}
	return diff
}

// findPreamble scans sig in symbol-length steps for a run of stable
// dechirped tones. It returns the index of the first sample of the aligned
// preamble symbol grid and the window index where the run was confirmed.
func (d *Demodulator) findPreamble(sig iq.Samples) (alignedStart int, confirmedAt int, err error) {
	s := d.symLen
	run := 0
	lastShift := -10
	for w := 0; (w+1)*s <= len(sig); w++ {
		shift, peak, mean := d.demodWindow(sig[w*s : (w+1)*s])
		if mean > 0 && peak/mean >= preambleDetectRatio && (run == 0 || d.chipDist(shift, lastShift) <= 1) {
			run++
			lastShift = shift
			if run >= minPreambleWindows {
				// Window offset within the preamble symbol: the
				// detected shift b maps to a start delay of
				// (N - b) mod N chips.
				tau := ((d.p.NumChips() - shift) % d.p.NumChips()) * d.p.OSR
				start := (w-run+1)*s + tau
				return start, w, nil
			}
		} else if mean > 0 && peak/mean >= preambleDetectRatio {
			run = 1
			lastShift = shift
		} else {
			run = 0
			lastShift = -10
		}
	}
	return 0, 0, errors.New("lora: no preamble found")
}

// Receive locates and decodes one packet in sig.
func (d *Demodulator) Receive(sig iq.Samples) (*Packet, error) {
	sig = d.Filter(sig)
	s := d.symLen
	start, _, err := d.findPreamble(sig)
	if err != nil {
		return nil, err
	}

	// Walk the aligned symbol grid: remaining preamble, sync, SFD.
	s1, s2 := d.p.syncShifts()
	w := start / s
	if start%s != 0 {
		w++ // first full window on the aligned grid
	}
	gridOff := start % s
	window := func(i int) (iq.Samples, bool) {
		lo := i*s + gridOff
		hi := lo + s
		if lo < 0 || hi > len(sig) {
			return nil, false
		}
		return sig[lo:hi], true
	}

	// Find the sync pair within a bounded horizon.
	horizon := d.p.PreambleLen + 8
	syncAt := -1
	for i := w; i < w+horizon; i++ {
		win, ok := window(i)
		if !ok {
			return nil, errors.New("lora: buffer ends inside preamble")
		}
		shift, _, _ := d.demodWindow(win)
		if d.chipDist(shift, s1) <= 1 {
			next, ok := window(i + 1)
			if !ok {
				return nil, errors.New("lora: buffer ends at sync word")
			}
			nshift, _, _ := d.demodWindow(next)
			if d.chipDist(nshift, s2) <= 1 {
				syncAt = i
				break
			}
		}
	}
	if syncAt < 0 {
		return nil, errors.New("lora: sync word not found")
	}

	// Verify the SFD: the window after sync2 must correlate with the
	// downchirp more strongly than with the upchirp.
	sfd, ok := window(syncAt + 2)
	if !ok {
		return nil, errors.New("lora: buffer ends at SFD")
	}
	_, upP, _ := d.demodWindow(sfd)
	if d.downPeak(sfd) <= upP {
		return nil, errors.New("lora: SFD downchirp not detected")
	}

	// Payload starts 2.25 symbols after the SFD head.
	payloadStart := (syncAt+2)*s + gridOff + s*9/4
	readSym := func(i int) (int, error) {
		lo := payloadStart + i*s
		if lo+s > len(sig) {
			return 0, errors.New("lora: buffer ends inside payload")
		}
		shift, _, _ := d.demodWindow(sig[lo : lo+s])
		return shift, nil
	}

	// Header block: always the first 8 symbols.
	first := make([]int, 8)
	for i := range first {
		v, err := readSym(i)
		if err != nil {
			return nil, err
		}
		first[i] = v
	}
	firstNibs, fecOK, err := d.p.decodeFirstBlock(first)
	if err != nil {
		return nil, err
	}

	hdr, err := parseHeader(firstNibs)
	if err != nil {
		return nil, err
	}
	pkt := &Packet{StartSample: start, FECOK: fecOK, Header: hdr}
	params := d.p
	params.CR = hdr.CR
	params.CRC = hdr.HasCRC
	bodyNibs := firstNibs[headerNibbleCount:]

	total := params.symbolCountFor(pkt.Header.PayloadLen)
	rest := make([]int, 0, total-8)
	for i := 8; i < total; i++ {
		v, err := readSym(i)
		if err != nil {
			return nil, err
		}
		rest = append(rest, v)
	}
	nibs, fecOK2 := params.decodePayloadBlocks(rest)
	pkt.FECOK = pkt.FECOK && fecOK2
	payload, crcOK, err := params.assembleNibbles(append(bodyNibs, nibs...), pkt.Header.PayloadLen)
	if err != nil {
		return nil, err
	}
	pkt.Payload = payload
	pkt.CRCOK = crcOK
	return pkt, nil
}

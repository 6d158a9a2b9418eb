package dsp

import (
	"math"

	"github.com/uwsdr/tinysdr/internal/iq"
)

// Spectrum is a power spectral estimate over [-SampleRate/2, SampleRate/2).
type Spectrum struct {
	// SampleRate is the sample rate of the analyzed signal in Hz.
	SampleRate float64
	// PowerDBm holds the per-bin power in dBm, DC-centered: bin 0 is
	// -SampleRate/2 and bin len-1 approaches +SampleRate/2.
	PowerDBm []float64
}

// Freq returns the center frequency in Hz of bin i (relative to the carrier).
func (s Spectrum) Freq(i int) float64 {
	n := len(s.PowerDBm)
	return (float64(i) - float64(n)/2) * s.SampleRate / float64(n)
}

// Peak returns the bin index and power of the strongest component.
func (s Spectrum) Peak() (bin int, dbm float64) {
	dbm = math.Inf(-1)
	for i, p := range s.PowerDBm {
		if p > dbm {
			dbm, bin = p, i
		}
	}
	return bin, dbm
}

// SFDR returns the spurious-free dynamic range in dB: the gap between the
// peak bin and the strongest bin outside ±guard bins around the peak. The
// guard band wraps modulo the spectrum length — the axis is circular, so a
// tone near ±SampleRate/2 keeps its full guard instead of having it
// clipped at the array edge (which overstated SFDR by letting skirt bins
// count as spurs on one side only). A guard covering every bin returns
// +Inf.
func (s Spectrum) SFDR(guard int) float64 {
	n := len(s.PowerDBm)
	peak, peakP := s.Peak()
	worst := math.Inf(-1)
	for i, p := range s.PowerDBm {
		d := i - peak
		if d < 0 {
			d += n
		}
		// d is the circular offset 0..n-1; inside the guard when within
		// guard bins in either direction around the ring.
		if d <= guard || d >= n-guard {
			continue
		}
		if p > worst {
			worst = p
		}
	}
	return peakP - worst
}

// WelchPlan holds the FFT plan, window and scratch for repeated Welch
// estimates of one FFT size — the plan+scratch idiom of the demod hot
// paths applied to the spectrum-sensing workload, where thousands of
// simulated nodes stream periodograms through one reused plan. After
// construction, EstimateInto performs no heap allocation. A WelchPlan owns
// scratch and is single-goroutine; give each worker its own.
type WelchPlan struct {
	plan *FFTPlan
	win  []float64
	// winSum[k] is the running window sum over win[:k]; winSum[n] is the
	// full coherent-gain numerator. Precomputing it keeps the short-input
	// calibration (populated-fraction gain) allocation- and loop-free.
	winSum []float64
	seg    iq.Samples
	acc    []float64
}

// NewWelchPlan returns a reusable estimator for the given FFT size, which
// must be a power of two (it panics otherwise, like NewFFTPlan).
func NewWelchPlan(fftSize int) *WelchPlan {
	if !IsPowerOfTwo(fftSize) {
		panic("dsp: Welch fftSize must be a power of two")
	}
	w := &WelchPlan{
		plan:   NewFFTPlan(fftSize),
		win:    Hann(fftSize),
		winSum: make([]float64, fftSize+1),
		seg:    make(iq.Samples, fftSize),
		acc:    make([]float64, fftSize),
	}
	for i, v := range w.win {
		w.winSum[i+1] = w.winSum[i] + v
	}
	return w
}

// EstimateInto computes the calibrated Welch power spectrum of x into dst
// (len(dst) must equal the plan's FFT size; it panics otherwise) and
// returns the Spectrum viewing dst. Hann-windowed periodograms with 50%
// overlap are averaged; an input shorter than one segment is zero-padded
// into a single window and the calibration scaled by the populated window
// fraction, so a tone reads its true power regardless of capture length
// (normalizing a partial window by the full-window coherent gain
// under-read short captures). When the populated window has no mass (an
// empty or one-sample capture: Hann's first tap is 0), nothing calibrates
// and every bin reads -Inf. It performs no heap allocation.
func (w *WelchPlan) EstimateInto(dst []float64, x iq.Samples, sampleRate float64) Spectrum {
	n := len(w.win)
	if len(dst) != n {
		panic("dsp: Welch dst length must equal the plan's FFT size")
	}
	clear(w.acc)
	segments := 0
	// Segments overlap by half; a one-point plan hops by one sample.
	for start := 0; start+n <= len(x); start += max(n/2, 1) {
		w.periodogram(x[start : start+n])
		segments++
	}
	coherent := w.winSum[n] / float64(n)
	if segments == 0 {
		// Input shorter than one segment: zero-pad a single window and
		// calibrate against the window mass the capture actually filled.
		w.periodogram(x)
		segments = 1
		coherent = w.winSum[len(x)] / float64(n)
	}
	spec := Spectrum{SampleRate: sampleRate, PowerDBm: dst}
	if coherent == 0 {
		for i := range dst {
			dst[i] = math.Inf(-1)
		}
		return spec
	}

	norm := 1 / (float64(segments) * float64(n) * float64(n) * coherent * coherent)
	for i := range w.acc {
		// FFT-shift so the result is DC-centered.
		src := (i + n/2) % n
		dst[i] = iq.MilliwattsToDBm(w.acc[src] * norm)
	}
	return spec
}

// periodogram adds the squared FFT magnitudes of one Hann-windowed segment
// of at most the plan's size (zero-padded past len(seg)) to acc. The
// window is applied as two real multiplies while scattering the samples
// straight into bit-reversed order, the DechirpTransformInto pattern, so
// the butterflies run with no separate permutation pass.
func (w *WelchPlan) periodogram(seg iq.Samples) {
	if len(seg) < len(w.seg) {
		clear(w.seg)
	}
	rev, win := w.plan.rev[:len(seg)], w.win[:len(seg)]
	for i, v := range seg {
		w.seg[rev[i]] = complex(real(v)*win[i], imag(v)*win[i])
	}
	w.plan.butterflies(w.seg)
	for i, v := range w.seg {
		w.acc[i] += real(v)*real(v) + imag(v)*imag(v)
	}
}

// Welch estimates the power spectrum of x by averaging Hann-windowed
// periodograms of length fftSize with 50% overlap. The estimate is
// calibrated so a full-scale tone reads its true power in dBm. It is the
// one-shot convenience form of WelchPlan; repeated estimates should hold a
// plan and call EstimateInto.
func Welch(x iq.Samples, fftSize int, sampleRate float64) Spectrum {
	return NewWelchPlan(fftSize).EstimateInto(make([]float64, fftSize), x, sampleRate)
}

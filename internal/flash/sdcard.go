package flash

import "fmt"

// SDCard models the microSD interface on tinySDR. The board wires the card
// to the FPGA's SPI block; SPI mode sustains the 104 Mbps needed to record
// the 4 MHz x 2 x 13-bit I/Q stream in real time (§3.2.2).
type SDCard struct {
	capacity int
	used     int
}

// SPIRate is the microSD SPI-mode throughput in bits per second.
const SPIRate = 104e6

// IQStreamRate is the raw I/Q sample stream rate the card must absorb for
// real-time capture: 4 Mwords/s x 32-bit LVDS words, of which 26 bits are
// sample payload. The SPI block strips framing, so the stored rate is
// 4 MHz x 26 bits = 104 Mbps.
const IQStreamRate = 4e6 * 26

// NewSDCard returns a card with the given capacity in bytes.
func NewSDCard(capacity int) *SDCard {
	return &SDCard{capacity: capacity}
}

// Append records n more bytes, failing when the card is full.
func (c *SDCard) Append(n int) error {
	if n < 0 {
		return fmt.Errorf("flash: negative append %d", n)
	}
	if c.used+n > c.capacity {
		return fmt.Errorf("flash: sd card full (%d of %d bytes used)", c.used, c.capacity)
	}
	c.used += n
	return nil
}

// Used returns the bytes recorded so far.
func (c *SDCard) Used() int { return c.used }

// CanSustainIQStream reports whether SPI mode keeps up with the live I/Q
// stream — the design check in §3.2.2 that justified using SPI mode.
func CanSustainIQStream() bool { return SPIRate >= IQStreamRate }

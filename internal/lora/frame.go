package lora

import (
	"errors"
	"fmt"
)

// Frame assembly: payload bytes <-> chirp symbol values (§4.1, Fig. 5).
//
// The symbol stream is organized in blocks. The first block always encodes
// at coding rate 4/8 with sfApp = SF-2 ("reduced rate"): its 8 symbols carry
// the explicit header (5 nibbles) plus the first payload nibbles. Subsequent
// blocks encode at the configured CR with sfApp = SF (or SF-2 when
// LowDataRateOptimize is set) and yield 4+CR symbols each.
//
// Reduced-rate symbols carry their bits in the top SF-2 positions (value
// << 2), so ±1 FFT-bin errors cannot corrupt them — the property that makes
// the header more robust than the payload.

// MaxPayload is the longest LoRa payload in bytes.
const MaxPayload = 255

// headerNibbleCount is the explicit header size: length (2 nibbles),
// flags (1), checksum (2).
const headerNibbleCount = 5

// Header is the decoded explicit PHY header.
type Header struct {
	PayloadLen int
	CR         CodingRate
	HasCRC     bool
}

func (p Params) firstBlockApp() int { return p.SF - 2 }

func (p Params) payloadBlockApp() int {
	if p.LowDataRateOptimize {
		return p.SF - 2
	}
	return p.SF
}

// nibbles converts payload (+CRC) into the transport nibble stream:
// whitened payload low-nibble first, then the unwhitened CRC.
func (p Params) nibbles(payload []byte) []byte {
	white := whiten(append([]byte(nil), payload...))
	out := make([]byte, 0, 2*len(payload)+4)
	for _, b := range white {
		out = append(out, b&0xF, b>>4)
	}
	if p.CRC {
		c := crc16(payload)
		out = append(out, byte(c)&0xF, byte(c)>>4&0xF, byte(c>>8)&0xF, byte(c>>12))
	}
	return out
}

// assembleNibbles reverses nibbles: strips and checks the CRC, de-whitens.
func (p Params) assembleNibbles(nibs []byte, payloadLen int) (payload []byte, crcOK bool, err error) {
	need := 2 * payloadLen
	if p.CRC {
		need += 4
	}
	if len(nibs) < need {
		return nil, false, fmt.Errorf("lora: %d nibbles for %d-byte payload", len(nibs), payloadLen)
	}
	payload = make([]byte, payloadLen)
	for i := range payload {
		payload[i] = nibs[2*i]&0xF | nibs[2*i+1]<<4
	}
	whiten(payload)
	crcOK = true
	if p.CRC {
		c := uint16OfNibble(nibs[2*payloadLen]) |
			uint16OfNibble(nibs[2*payloadLen+1])<<4 |
			uint16OfNibble(nibs[2*payloadLen+2])<<8 |
			uint16OfNibble(nibs[2*payloadLen+3])<<12
		crcOK = c == crc16(payload)
	}
	return payload, crcOK, nil
}

func uint16OfNibble(b byte) uint16 { return uint16(b & 0xF) }

// headerNibbles encodes the explicit header for a payload length.
func (p Params) headerNibbles(payloadLen int) []byte {
	n0 := byte(payloadLen >> 4)
	n1 := byte(payloadLen & 0xF)
	flag := byte(0)
	if p.CRC {
		flag = 1
	}
	n2 := byte(p.CR)<<1 | flag
	chk := headerChecksum(n0, n1, n2)
	return []byte{n0, n1, n2, chk >> 4, chk & 0xF}
}

func parseHeader(nibs []byte) (Header, error) {
	if len(nibs) < headerNibbleCount {
		return Header{}, errors.New("lora: truncated header")
	}
	n0, n1, n2 := nibs[0]&0xF, nibs[1]&0xF, nibs[2]&0xF
	chk := nibs[3]&0xF<<4 | nibs[4]&0xF
	if headerChecksum(n0, n1, n2) != chk {
		return Header{}, errors.New("lora: header checksum mismatch")
	}
	h := Header{
		PayloadLen: int(n0)<<4 | int(n1),
		CR:         CodingRate(n2 >> 1),
		HasCRC:     n2&1 == 1,
	}
	if h.CR < CR45 || h.CR > CR48 {
		return Header{}, fmt.Errorf("lora: header advertises invalid CR %d", int(h.CR))
	}
	return h, nil
}

// encodeBlocks converts the transport nibble stream into symbol values.
func (p Params) encodeBlocks(payload []byte) ([]int, error) {
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("lora: payload %d exceeds %d bytes", len(payload), MaxPayload)
	}
	nibs := append(p.headerNibbles(len(payload)), p.nibbles(payload)...)

	var symbols []int
	// Block 1: CR 4/8, reduced rate.
	app1 := p.firstBlockApp()
	block := make([]uint16, app1)
	for k := 0; k < app1; k++ {
		var nb byte
		if k < len(nibs) {
			nb = nibs[k]
		}
		block[k] = hammingEncode(nb, CR48)
	}
	for _, s := range interleaveBlock(block, 8) {
		symbols = append(symbols, grayDecode(s)<<2)
	}
	nibs = nibs[min(app1, len(nibs)):]

	// Payload blocks at the configured rate.
	app := p.payloadBlockApp()
	shift := p.SF - app
	w := p.CR.CodewordBits()
	for len(nibs) > 0 {
		block = make([]uint16, app)
		for k := 0; k < app; k++ {
			var nb byte
			if k < len(nibs) {
				nb = nibs[k]
			}
			block[k] = hammingEncode(nb, p.CR)
		}
		for _, s := range interleaveBlock(block, w) {
			symbols = append(symbols, grayDecode(s)<<uint(shift))
		}
		nibs = nibs[min(app, len(nibs)):]
	}
	return symbols, nil
}

// decodeFirstBlock recovers the nibbles of block 1 from its 8 symbols.
// fecOK reports whether every codeword decoded consistently.
func (p Params) decodeFirstBlock(symbols []int) (nibs []byte, fecOK bool, err error) {
	if len(symbols) < 8 {
		return nil, false, errors.New("lora: first block truncated")
	}
	app := p.firstBlockApp()
	raw := make([]int, 8)
	for i, s := range symbols[:8] {
		raw[i] = grayEncode(s>>2) & (1<<uint(app) - 1)
	}
	fecOK = true
	for _, cw := range deinterleaveBlock(raw, app) {
		nb, ok := hammingDecode(cw, CR48)
		if !ok {
			fecOK = false
		}
		nibs = append(nibs, nb)
	}
	return nibs, fecOK, nil
}

// decodePayloadBlocks recovers nibbles from the post-header symbol stream.
func (p Params) decodePayloadBlocks(symbols []int) (nibs []byte, fecOK bool) {
	app := p.payloadBlockApp()
	shift := p.SF - app
	w := p.CR.CodewordBits()
	fecOK = true
	for start := 0; start+w <= len(symbols); start += w {
		raw := make([]int, w)
		for i, s := range symbols[start : start+w] {
			raw[i] = grayEncode(s>>uint(shift)) & (1<<uint(app) - 1)
		}
		for _, cw := range deinterleaveBlock(raw, app) {
			nb, ok := hammingDecode(cw, p.CR)
			if !ok {
				fecOK = false
			}
			nibs = append(nibs, nb)
		}
	}
	return nibs, fecOK
}

// symbolCountFor returns how many payload-section symbols a packet carries,
// derived from the block layout (it equals the Semtech air-time formula).
func (p Params) symbolCountFor(payloadLen int) int {
	nibbles := headerNibbleCount + 2*payloadLen
	if p.CRC {
		nibbles += 4
	}
	inFirst := min(nibbles, p.firstBlockApp())
	rest := nibbles - inFirst
	app := p.payloadBlockApp()
	blocks := (rest + app - 1) / app
	return 8 + blocks*p.CR.CodewordBits()
}

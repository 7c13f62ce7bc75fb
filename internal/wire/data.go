package wire

import (
	"errors"
	"fmt"

	"ccredf/internal/ring"
)

// This file implements the data-channel packet format. The paper keeps
// data-packet headers deliberately small ("with less header overhead in the
// data-packets the slot-length can be shortened"), because arbitration and
// addressing already happened on the control channel. What remains in-band
// is what a receiving node needs to reassemble a message and what the
// intrinsic reliable-transmission service needs to detect corruption:
//
//	version   4 bits
//	class     2 bits  (sched.Class, 1-3)
//	source    6 bits  (node index, up to 64 nodes)
//	dests     N bits  (destination set, for multicast filtering)
//	msgID    32 bits  (message identifier)
//	fragment 16 bits  (fragment index within the message)
//	total    16 bits  (fragments in the message)
//	length   16 bits  (payload bytes in this fragment)
//	crc      16 bits  (CRC-16/CCITT over header+payload)
//
// followed by the payload. The header is 108+N bits ≈ 15 bytes on an 8-node
// ring — 0.4% of a 4 KiB slot.

// DataVersion is the current data-packet format version.
const DataVersion = 1

// DataPacket is one data-channel fragment.
type DataPacket struct {
	// Version is the format version (DataVersion).
	Version uint8
	// Class is the traffic class (1-3; the 0 value is invalid on the wire).
	Class uint8
	// Src is the sending node.
	Src int
	// Dests is the destination set for multicast filtering.
	Dests ring.NodeSet
	// MsgID identifies the message (truncated to 32 bits on the wire).
	MsgID uint32
	// Fragment is this fragment's index, Total the message's fragment count.
	Fragment, Total uint16
	// Payload is the user data carried by the fragment.
	Payload []byte
}

// dataHeaderBits returns the header length in bits for an n-node ring,
// excluding the trailing CRC.
func dataHeaderBits(n int) int { return 4 + 2 + 6 + n + 32 + 16 + 16 + 16 }

// DataPacketBits returns the total on-wire length in bits of a data packet
// with the given payload length on an n-node ring.
func DataPacketBits(n, payloadLen int) int {
	return dataHeaderBits(n) + 16 + 8*payloadLen
}

// crcTable holds the CRC-16/CCITT-FALSE remainder (polynomial 0x1021) of
// every byte value, so CRC16 folds in a whole byte per lookup instead of
// shifting through its 8 bits.
var crcTable = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i) << 8
		for j := 0; j < 8; j++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// CRC16 computes CRC-16/CCITT-FALSE over buf — the checksum the reliable
// transmission service uses to detect corrupted fragments.
func CRC16(buf []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range buf {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
	}
	return crc
}

// errDataFormat reports a malformed data packet.
var errDataFormat = errors.New("wire: malformed data packet")

// EncodeData serialises p for a ring of n nodes.
func EncodeData(p DataPacket, n int) ([]byte, error) {
	var w Writer
	if err := EncodeDataInto(&w, p, n); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// EncodeDataInto is EncodeData writing through a caller-owned Writer (which
// it resets first): the data-channel verifier serialises one packet per
// transmitted fragment and reuses the Writer's buffer across fragments. The
// packet bytes are available from w.Bytes on success.
func EncodeDataInto(w *Writer, p DataPacket, n int) error {
	switch {
	case p.Version >= 1<<4:
		return fmt.Errorf("wire: version %d exceeds 4 bits", p.Version)
	case p.Class == 0 || p.Class >= 1<<2:
		return fmt.Errorf("wire: class %d outside [1,3]", p.Class)
	case p.Src < 0 || p.Src >= n:
		return fmt.Errorf("wire: source %d outside ring of %d", p.Src, n)
	case !fits(uint64(p.Dests), n):
		return fmt.Errorf("wire: destination set exceeds %d-bit width", n)
	case p.Dests == 0:
		return errors.New("wire: data packet without destinations")
	case p.Fragment >= p.Total:
		return fmt.Errorf("wire: fragment %d of %d", p.Fragment, p.Total)
	case len(p.Payload) >= 1<<16:
		return fmt.Errorf("wire: payload %d bytes exceeds 16-bit length", len(p.Payload))
	}
	w.Reset()
	w.WriteBits(uint64(p.Version), 4)
	w.WriteBits(uint64(p.Class), 2)
	w.WriteBits(uint64(p.Src), 6)
	w.WriteBits(uint64(p.Dests), n)
	w.WriteBits(uint64(p.MsgID), 32)
	w.WriteBits(uint64(p.Fragment), 16)
	w.WriteBits(uint64(p.Total), 16)
	w.WriteBits(uint64(len(p.Payload)), 16)
	// Byte-align the payload so the checksum covers whole bytes and the
	// hardware can DMA it.
	for w.Len()%8 != 0 {
		w.WriteBit(false)
	}
	w.AppendBytes(p.Payload)
	crc := CRC16(w.Bytes())
	w.WriteBits(uint64(crc), 16)
	return nil
}

// DecodeData parses and checksum-verifies a data packet for a ring of n
// nodes.
func DecodeData(buf []byte, n int) (DataPacket, error) {
	var p DataPacket
	if err := DecodeDataInto(&p, buf, n); err != nil {
		return DataPacket{}, err
	}
	return p, nil
}

// DecodeDataInto is DecodeData parsing into a caller-owned DataPacket,
// reusing p.Payload's capacity: the data-channel verifier decodes one packet
// per transmitted fragment and must not allocate a payload copy each time.
// On error p is left partially decoded and must not be interpreted.
func DecodeDataInto(p *DataPacket, buf []byte, n int) error {
	if len(buf) < 3 {
		return errTruncated
	}
	body, sum := buf[:len(buf)-2], buf[len(buf)-2:]
	if got := CRC16(body); got != uint16(sum[0])<<8|uint16(sum[1]) {
		return fmt.Errorf("wire: data CRC mismatch (got %04x, want %02x%02x)", got, sum[0], sum[1])
	}
	headerBits := dataHeaderBits(n)
	headerBytes := (headerBits + 7) / 8
	if 8*len(body) < headerBits {
		return errTruncated
	}
	// The header fits (checked above), so the field reads cannot fail.
	r := Reader{buf: body}
	ver, _ := r.ReadBits(4)
	class, _ := r.ReadBits(2)
	src, _ := r.ReadBits(6)
	dests, _ := r.ReadBits(n)
	msgID, _ := r.ReadBits(32)
	frag, _ := r.ReadBits(16)
	total, _ := r.ReadBits(16)
	length, _ := r.ReadBits(16)
	p.Version = uint8(ver)
	p.Class = uint8(class)
	p.Src = int(src)
	p.Dests = ring.NodeSet(dests)
	p.MsgID = uint32(msgID)
	p.Fragment = uint16(frag)
	p.Total = uint16(total)
	if len(body) != headerBytes+int(length) {
		return fmt.Errorf("%w: length field %d vs body %d", errDataFormat, length, len(body)-headerBytes)
	}
	p.Payload = append(p.Payload[:0], body[headerBytes:]...)
	if p.Version != DataVersion {
		return fmt.Errorf("%w: version %d", errDataFormat, p.Version)
	}
	if p.Class == 0 || p.Src >= n || p.Fragment >= p.Total {
		return errDataFormat
	}
	return nil
}

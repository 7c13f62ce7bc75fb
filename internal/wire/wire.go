// Package wire implements the bit-serial control-channel packet formats of
// the CCR-EDF network.
//
// Two packets exist (paper Figures 4 and 5):
//
//   - The collection-phase packet: a start bit followed by one request per
//     node, each request being a 5-bit priority field, an N-bit link
//     reservation field and an N-bit destination field. Priority 0 is the
//     reserved "nothing to send" level, in which case the node writes zeros
//     in the remaining fields.
//
//   - The distribution-phase packet: a start bit, N−1 request-result bits
//     (the result for the highest-priority node is implicit — its request is
//     by construction always granted), a ⌈log₂N⌉-bit index of the
//     highest-priority node that will be master in the coming slot, and the
//     "other fields" the paper mentions but does not specify, which this
//     implementation uses for the intrinsic services of ref [11]: an N-bit
//     acknowledgement field, a barrier-completion bit and a 64-bit global
//     reduction operand.
//
// Bits are packed MSB-first into bytes, which mirrors serial transmission
// order on the control fibre.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ccredf/internal/ring"
	"ccredf/internal/timing"
)

// PrioBits is the width of the request priority field (Table 1 allocates
// levels 0–31).
const PrioBits = 5

// MaxPrio is the highest encodable priority level.
const MaxPrio = 1<<PrioBits - 1

// PrioNothing is the reserved priority level meaning "nothing to send".
const PrioNothing = 0

// Request is one node's entry in the collection-phase packet (Figure 4).
type Request struct {
	// Prio is the 5-bit priority level (Table 1). PrioNothing means the
	// node has no request and the other fields must be zero.
	Prio uint8
	// Reserve is the N-bit link reservation field: the links the request
	// needs for its transmission segment.
	Reserve ring.LinkSet
	// Dests is the N-bit destination field (single destination, multicast
	// or broadcast).
	Dests ring.NodeSet
}

// Empty reports whether the request carries nothing to send.
func (r Request) Empty() bool { return r.Prio == PrioNothing }

// Collection is a complete collection-phase packet: one request per node, in
// ring order starting at the node downstream of the master (the master
// initiates the empty packet and each node appends its request as it passes).
type Collection struct {
	Requests []Request
}

// Distribution is a distribution-phase packet (Figure 5).
type Distribution struct {
	// HPNode is the index of the node holding the highest-priority message;
	// it becomes master of the coming slot.
	HPNode int
	// Granted marks the nodes whose requests were accepted. HPNode's grant
	// is implicit on the wire but always set here after decoding.
	Granted ring.NodeSet
	// Acks acknowledges data packets received in the previous slot, per
	// source node (reliable-transmission service).
	Acks ring.NodeSet
	// Barrier is set when the current barrier-synchronisation round is
	// complete (all participants reported).
	Barrier bool
	// Reduce carries the running operand of a global-reduction operation.
	Reduce uint64
}

// errTruncated is returned when a packet is shorter than its format requires.
var errTruncated = errors.New("wire: truncated packet")

// fits reports whether v fits in width bits (width ≤ 64).
func fits(v uint64, width int) bool {
	return width >= 64 || v < 1<<uint(width)
}

// Writer packs bits MSB-first into a byte slice.
type Writer struct {
	buf  []byte
	nbit int
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 0x80 >> uint(w.nbit%8)
	}
	w.nbit++
}

// chunkBits is the widest field WriteBits and ReadBits move in one step: a
// chunk plus the up to 7 bits already in the current byte fit one 64-bit
// word.
const chunkBits = 56

// WriteBits appends the width low-order bits of v, most significant first.
// Widths above chunkBits are written as several chunks, the high one first.
func (w *Writer) WriteBits(v uint64, width int) {
	for width > chunkBits {
		width -= chunkBits
		w.writeChunk(v>>uint(width), chunkBits)
	}
	w.writeChunk(v, width)
}

// writeChunk appends the width ≤ chunkBits low-order bits of v: it places
// them in a word left-aligned after the partial byte's bits, ORs the word's
// first byte into that partial byte and appends the bytes that remain.
func (w *Writer) writeChunk(v uint64, width int) {
	if width <= 0 {
		return
	}
	off := w.nbit % 8
	word := (v & (1<<uint(width) - 1)) << uint(64-off-width)
	n := (off + width + 7) / 8
	if off != 0 {
		w.buf[len(w.buf)-1] |= byte(word >> 56)
		word <<= 8
		n--
	}
	// Appending the whole word and trimming it back measured faster than
	// appending n bytes; the trimmed bytes lie past len and are never read.
	end := len(w.buf) + n
	w.buf = binary.BigEndian.AppendUint64(w.buf, word)[:end]
	w.nbit += width
}

// Reset discards the written bits while keeping the grown buffer, so one
// Writer can serialise a packet every arbitration round without reallocating.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// AppendBytes appends whole bytes to a byte-aligned writer (the data-packet
// encoder byte-aligns its header so payload and CRC can be block-copied).
func (w *Writer) AppendBytes(b []byte) {
	if w.nbit%8 != 0 {
		panic("wire: AppendBytes on an unaligned writer")
	}
	w.buf = append(w.buf, b...)
	w.nbit += 8 * len(b)
}

// Bytes returns the packed bytes. The final byte is zero-padded.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bits written.
func (w *Writer) Len() int { return w.nbit }

// Reader unpacks bits MSB-first from a byte slice.
type Reader struct {
	buf  []byte
	nbit int
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (bool, error) {
	if r.nbit >= 8*len(r.buf) {
		return false, errTruncated
	}
	b := r.buf[r.nbit/8]&(0x80>>uint(r.nbit%8)) != 0
	r.nbit++
	return b, nil
}

// ReadBits consumes width bits and returns them as the low-order bits of a
// uint64, most significant first. When fewer than width bits remain it
// consumes nothing and returns errTruncated.
func (r *Reader) ReadBits(width int) (uint64, error) {
	if width > r.Remaining() {
		return 0, errTruncated
	}
	var v uint64
	for width > chunkBits {
		width -= chunkBits
		v = v<<chunkBits | r.readChunk(chunkBits)
	}
	if width > 0 {
		v = v<<uint(width) | r.readChunk(width)
	}
	return v, nil
}

// readChunk consumes width ≤ chunkBits bits, which the caller has checked
// are there. It extracts them from the big-endian 8-byte window starting at
// the current byte; near the end of the buffer the window is assembled byte
// by byte with zeros past the end.
func (r *Reader) readChunk(width int) uint64 {
	i, off := r.nbit/8, r.nbit%8
	var word uint64
	if i+8 <= len(r.buf) {
		word = binary.BigEndian.Uint64(r.buf[i:])
	} else {
		for j, b := range r.buf[i:] {
			word |= uint64(b) << uint(56-8*j)
		}
	}
	r.nbit += width
	return word << uint(off) >> uint(64-width)
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return 8*len(r.buf) - r.nbit }

// EncodeCollection serialises c for a ring of n nodes. It returns an error
// when the packet shape is inconsistent with n or a field overflows its
// width.
func EncodeCollection(c Collection, n int) ([]byte, error) {
	var w Writer
	if err := EncodeCollectionInto(&w, c, n); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// EncodeCollectionInto is EncodeCollection writing through a caller-owned
// Writer (which it resets first): a verifier that serialises one packet per
// arbitration round reuses the Writer's buffer instead of growing a fresh one
// each time. The packet bytes are available from w.Bytes on success.
func EncodeCollectionInto(w *Writer, c Collection, n int) error {
	if len(c.Requests) != n {
		return fmt.Errorf("wire: collection has %d requests, ring has %d nodes", len(c.Requests), n)
	}
	w.Reset()
	w.WriteBit(true) // start bit
	for i, req := range c.Requests {
		if req.Prio > MaxPrio {
			return fmt.Errorf("wire: request %d priority %d exceeds %d", i, req.Prio, MaxPrio)
		}
		if !fits(uint64(req.Reserve), n) || !fits(uint64(req.Dests), n) {
			return fmt.Errorf("wire: request %d field exceeds %d-bit width", i, n)
		}
		if req.Empty() && (req.Reserve != 0 || req.Dests != 0) {
			return fmt.Errorf("wire: request %d has priority 0 but non-zero fields", i)
		}
		w.WriteBits(uint64(req.Prio), PrioBits)
		w.WriteBits(uint64(req.Reserve), n)
		w.WriteBits(uint64(req.Dests), n)
	}
	return nil
}

// DecodeCollection parses a collection-phase packet for a ring of n nodes.
func DecodeCollection(buf []byte, n int) (Collection, error) {
	var c Collection
	if err := DecodeCollectionInto(&c, buf, n); err != nil {
		return Collection{}, err
	}
	return c, nil
}

// DecodeCollectionInto is DecodeCollection parsing into a caller-owned
// Collection, reusing c.Requests when its capacity suffices. On error c is
// left with partially decoded requests and must not be interpreted.
func DecodeCollectionInto(c *Collection, buf []byte, n int) error {
	r := NewReader(buf)
	start, err := r.ReadBit()
	if err != nil {
		return err
	}
	if !start {
		return errors.New("wire: missing start bit")
	}
	if cap(c.Requests) < n {
		c.Requests = make([]Request, n)
	}
	c.Requests = c.Requests[:n]
	for i := 0; i < n; i++ {
		prio, err := r.ReadBits(PrioBits)
		if err != nil {
			return err
		}
		res, err := r.ReadBits(n)
		if err != nil {
			return err
		}
		dst, err := r.ReadBits(n)
		if err != nil {
			return err
		}
		c.Requests[i] = Request{Prio: uint8(prio), Reserve: ring.LinkSet(res), Dests: ring.NodeSet(dst)}
		if c.Requests[i].Empty() && (res != 0 || dst != 0) {
			return fmt.Errorf("wire: request %d has priority 0 but non-zero fields", i)
		}
	}
	return nil
}

// EncodeDistribution serialises d for a ring of n nodes.
func EncodeDistribution(d Distribution, n int) ([]byte, error) {
	var w Writer
	if err := EncodeDistributionInto(&w, d, n); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// EncodeDistributionInto is EncodeDistribution writing through a caller-owned
// Writer (which it resets first), reusing the Writer's grown buffer across
// rounds. The packet bytes are available from w.Bytes on success.
func EncodeDistributionInto(w *Writer, d Distribution, n int) error {
	if d.HPNode < 0 || d.HPNode >= n {
		return fmt.Errorf("wire: hp-node %d outside ring of %d", d.HPNode, n)
	}
	if !fits(uint64(d.Granted), n) || !fits(uint64(d.Acks), n) {
		return fmt.Errorf("wire: node-set field exceeds %d-bit width", n)
	}
	w.Reset()
	w.WriteBit(true) // start bit
	// N−1 result bits: every node except HPNode, in ascending index order.
	for i := 0; i < n; i++ {
		if i == d.HPNode {
			continue
		}
		w.WriteBit(d.Granted.Contains(i))
	}
	w.WriteBits(uint64(d.HPNode), timing.CeilLog2(n))
	// "Other fields": intrinsic services (ref [11]).
	w.WriteBits(uint64(d.Acks), n)
	w.WriteBit(d.Barrier)
	w.WriteBits(d.Reduce, 64)
	return nil
}

// DecodeDistribution parses a distribution-phase packet for a ring of n
// nodes. The highest-priority node's grant is restored (it is implicit on
// the wire).
func DecodeDistribution(buf []byte, n int) (Distribution, error) {
	r := NewReader(buf)
	start, err := r.ReadBit()
	if err != nil {
		return Distribution{}, err
	}
	if !start {
		return Distribution{}, errors.New("wire: missing start bit")
	}
	// The N−1 result bits fit a uint64 (a NodeSet bounds the ring at 64
	// nodes), so they are held as a bitfield instead of a per-call []bool.
	results, err := r.ReadBits(n - 1)
	if err != nil {
		return Distribution{}, err
	}
	hp, err := r.ReadBits(timing.CeilLog2(n))
	if err != nil {
		return Distribution{}, err
	}
	if int(hp) >= n {
		return Distribution{}, fmt.Errorf("wire: hp-node %d outside ring of %d", hp, n)
	}
	d := Distribution{HPNode: int(hp)}
	// Re-associate the N−1 result bits (MSB-first read order) with node
	// indices.
	j := 0
	for i := 0; i < n; i++ {
		if i == d.HPNode {
			continue
		}
		if results>>uint(n-2-j)&1 == 1 {
			d.Granted = d.Granted.Add(i)
		}
		j++
	}
	d.Granted = d.Granted.Add(d.HPNode) // implicit grant
	acks, err := r.ReadBits(n)
	if err != nil {
		return Distribution{}, err
	}
	d.Acks = ring.NodeSet(acks)
	d.Barrier, err = r.ReadBit()
	if err != nil {
		return Distribution{}, err
	}
	d.Reduce, err = r.ReadBits(64)
	if err != nil {
		return Distribution{}, err
	}
	return d, nil
}

// CollectionBits returns the on-wire length in bits of a collection packet
// for a ring of n nodes (matches timing.Params.CollectionBits).
func CollectionBits(n int) int { return 1 + n*(PrioBits+2*n) }

// DistributionBits returns the on-wire length in bits of a distribution
// packet for a ring of n nodes, including the service fields.
func DistributionBits(n int) int {
	return 1 + (n - 1) + timing.CeilLog2(n) + n + 1 + 64
}

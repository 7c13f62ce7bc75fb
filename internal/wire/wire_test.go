package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ccredf/internal/ring"
)

func TestWriterReaderBits(t *testing.T) {
	var w Writer
	w.WriteBit(true)
	w.WriteBits(0b1011, 4)
	w.WriteBits(0x3FF, 10)
	if w.Len() != 15 {
		t.Fatalf("Len() = %d, want 15", w.Len())
	}
	r := NewReader(w.Bytes())
	b, err := r.ReadBit()
	if err != nil || !b {
		t.Fatalf("first bit = %v, %v", b, err)
	}
	v, err := r.ReadBits(4)
	if err != nil || v != 0b1011 {
		t.Fatalf("ReadBits(4) = %b, %v", v, err)
	}
	v, err = r.ReadBits(10)
	if err != nil || v != 0x3FF {
		t.Fatalf("ReadBits(10) = %x, %v", v, err)
	}
}

func TestWriterMSBFirst(t *testing.T) {
	var w Writer
	w.WriteBits(0b10000001, 8)
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0b10000001 {
		t.Fatalf("Bytes() = %08b", got[0])
	}
}

func TestReaderTruncated(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("reading 8 bits of 1 byte: %v", err)
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("reading past end did not error")
	}
}

func TestBitRoundtripProperty(t *testing.T) {
	f := func(v uint64, rawWidth uint8) bool {
		width := int(rawWidth%64) + 1
		v &= 1<<uint(width) - 1
		var w Writer
		w.WriteBits(v, width)
		r := NewReader(w.Bytes())
		got, err := r.ReadBits(width)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refWriter and refReader are the bit-serial codec that Writer and Reader
// replaced: one bit per step, each bit placed and extracted on its own. They
// are the oracle the chunked codec is compared against.
type refWriter struct {
	buf  []byte
	nbit int
}

func (w *refWriter) writeBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 0x80 >> uint(w.nbit%8)
	}
	w.nbit++
}

func (w *refWriter) writeBits(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.writeBit(v>>uint(i)&1 == 1)
	}
}

func (w *refWriter) appendBytes(b []byte) {
	w.buf = append(w.buf, b...)
	w.nbit += 8 * len(b)
}

type refReader struct {
	buf  []byte
	nbit int
}

func (r *refReader) readBit() (bool, error) {
	if r.nbit >= 8*len(r.buf) {
		return false, errTruncated
	}
	b := r.buf[r.nbit/8]&(0x80>>uint(r.nbit%8)) != 0
	r.nbit++
	return b, nil
}

func (r *refReader) readBits(width int) (uint64, error) {
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v, nil
}

// TestCodecMatchesBitSerialReference drives the chunked Writer and the
// bit-serial reference with the same random operation sequences — fields of
// every width 0..64 with garbage above the width, single bits and
// byte-aligned appends, at every bit offset — and requires identical bytes
// and lengths after each step. It then reads the packet back through Reader
// and the reference with random widths, running off the end, and requires
// identical values and the first errTruncated at the same read.
func TestCodecMatchesBitSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 2000; seq++ {
		var w Writer
		var ref refWriter
		for op, ops := 0, rng.Intn(40); op < ops; op++ {
			switch k := rng.Intn(10); {
			case k < 6:
				v, width := rng.Uint64(), rng.Intn(65)
				w.WriteBits(v, width)
				ref.writeBits(v, width)
			case k < 9:
				b := rng.Intn(2) == 1
				w.WriteBit(b)
				ref.writeBit(b)
			case w.Len()%8 == 0:
				b := make([]byte, rng.Intn(12))
				rng.Read(b)
				w.AppendBytes(b)
				ref.appendBytes(b)
			}
			if !bytes.Equal(w.Bytes(), ref.buf) || w.Len() != ref.nbit {
				t.Fatalf("sequence %d op %d: writer has %d bits %x, reference %d bits %x",
					seq, op, w.Len(), w.Bytes(), ref.nbit, ref.buf)
			}
		}
		r, rr := NewReader(w.Bytes()), refReader{buf: ref.buf}
		for read := 0; ; read++ {
			var got, want uint64
			var err, wantErr error
			before := r.Remaining()
			if rng.Intn(8) == 0 {
				var gotBit, wantBit bool
				gotBit, err = r.ReadBit()
				wantBit, wantErr = rr.readBit()
				got, want = boolBit(gotBit), boolBit(wantBit)
			} else {
				width := rng.Intn(65)
				if rng.Intn(8) == 0 {
					width = before + 1 + rng.Intn(8) // over-long
				}
				got, err = r.ReadBits(width)
				want, wantErr = rr.readBits(width)
			}
			if !errors.Is(err, wantErr) || got != want {
				t.Fatalf("sequence %d read %d: got %x, %v; reference %x, %v", seq, read, got, err, want, wantErr)
			}
			if err != nil {
				if r.Remaining() != before {
					t.Fatalf("sequence %d read %d: truncated read consumed %d bits", seq, read, before-r.Remaining())
				}
				break
			}
		}
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func sampleCollection(n int) Collection {
	c := Collection{Requests: make([]Request, n)}
	for i := range c.Requests {
		switch i % 3 {
		case 0:
			c.Requests[i] = Request{} // nothing to send
		case 1:
			c.Requests[i] = Request{Prio: uint8(17 + i%15), Reserve: ring.Link(i % n), Dests: ring.Node((i + 1) % n)}
		default:
			c.Requests[i] = Request{Prio: uint8(2 + i%15), Reserve: ring.Link(i % n).Union(ring.Link((i + 1) % n)), Dests: ring.NodeSetOf((i+1)%n, (i+2)%n)}
		}
	}
	return c
}

func TestCollectionRoundtrip(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16, 64} {
		c := sampleCollection(n)
		buf, err := EncodeCollection(c, n)
		if err != nil {
			t.Fatalf("N=%d encode: %v", n, err)
		}
		got, err := DecodeCollection(buf, n)
		if err != nil {
			t.Fatalf("N=%d decode: %v", n, err)
		}
		for i := range c.Requests {
			if got.Requests[i] != c.Requests[i] {
				t.Fatalf("N=%d request %d: got %+v, want %+v", n, i, got.Requests[i], c.Requests[i])
			}
		}
	}
}

// ones returns a value with the low width bits set.
func ones(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(width) - 1
}

// TestAllOnesRoundtrip fills every field to its full width — 64-bit
// reservation, destination and acknowledgement fields at n=64, which the
// codec moves as more than one chunk — and checks both packets come back
// unchanged and go on the wire as solid one bits.
func TestAllOnesRoundtrip(t *testing.T) {
	for _, n := range []int{2, 64} {
		c := Collection{Requests: make([]Request, n)}
		for i := range c.Requests {
			c.Requests[i] = Request{Prio: MaxPrio, Reserve: ring.LinkSet(ones(n)), Dests: ring.NodeSet(ones(n))}
		}
		buf, err := EncodeCollection(c, n)
		if err != nil {
			t.Fatalf("N=%d encode collection: %v", n, err)
		}
		checkAllOnes(t, fmt.Sprintf("N=%d collection", n), buf, CollectionBits(n))
		got, err := DecodeCollection(buf, n)
		if err != nil {
			t.Fatalf("N=%d decode collection: %v", n, err)
		}
		for i := range c.Requests {
			if got.Requests[i] != c.Requests[i] {
				t.Fatalf("N=%d request %d: got %+v, want %+v", n, i, got.Requests[i], c.Requests[i])
			}
		}

		d := Distribution{
			HPNode: n - 1, Granted: ring.NodeSet(ones(n)), Acks: ring.NodeSet(ones(n)),
			Barrier: true, Reduce: ^uint64(0),
		}
		buf, err = EncodeDistribution(d, n)
		if err != nil {
			t.Fatalf("N=%d encode distribution: %v", n, err)
		}
		checkAllOnes(t, fmt.Sprintf("N=%d distribution", n), buf, DistributionBits(n))
		gotD, err := DecodeDistribution(buf, n)
		if err != nil {
			t.Fatalf("N=%d decode distribution: %v", n, err)
		}
		if gotD != d {
			t.Fatalf("N=%d distribution: got %+v, want %+v", n, gotD, d)
		}
	}
}

// checkAllOnes requires buf to hold exactly bits one bits, zero-padded to a
// whole byte.
func checkAllOnes(t *testing.T, what string, buf []byte, bits int) {
	t.Helper()
	want := bytes.Repeat([]byte{0xFF}, (bits+7)/8)
	if bits%8 != 0 {
		want[len(want)-1] = byte(0xFF << uint(8-bits%8))
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("%s: packet %x, want %d one bits", what, buf, bits)
	}
}

func TestCollectionWireLength(t *testing.T) {
	for _, n := range []int{2, 5, 8, 64} {
		buf, err := EncodeCollection(sampleCollection(n), n)
		if err != nil {
			t.Fatal(err)
		}
		wantBits := CollectionBits(n)
		wantBytes := (wantBits + 7) / 8
		if len(buf) != wantBytes {
			t.Errorf("N=%d: packet is %d bytes, want %d (%d bits)", n, len(buf), wantBytes, wantBits)
		}
	}
}

func TestCollectionFig4Layout(t *testing.T) {
	// Figure 4: fields appear in order start, prio₁, reserve₁, dest₁, prio₂…
	n := 5
	c := Collection{Requests: make([]Request, n)}
	c.Requests[0] = Request{Prio: 0b10101, Reserve: ring.LinkSet(0b00011), Dests: ring.NodeSet(0b00100)}
	buf, err := EncodeCollection(c, n)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(buf)
	start, _ := r.ReadBit()
	if !start {
		t.Fatal("missing start bit")
	}
	prio, _ := r.ReadBits(5)
	if prio != 0b10101 {
		t.Fatalf("prio on wire = %05b", prio)
	}
	res, _ := r.ReadBits(5)
	if res != 0b00011 {
		t.Fatalf("reserve on wire = %05b", res)
	}
	dst, _ := r.ReadBits(5)
	if dst != 0b00100 {
		t.Fatalf("dest on wire = %05b", dst)
	}
}

func TestCollectionEncodeErrors(t *testing.T) {
	n := 4
	// Wrong request count.
	if _, err := EncodeCollection(Collection{Requests: make([]Request, 3)}, n); err == nil {
		t.Error("accepted wrong request count")
	}
	// Field overflow.
	c := Collection{Requests: make([]Request, n)}
	c.Requests[0] = Request{Prio: 5, Reserve: ring.Link(4)}
	if _, err := EncodeCollection(c, n); err == nil {
		t.Error("accepted reservation outside ring width")
	}
	// Priority 0 with non-zero fields.
	c = Collection{Requests: make([]Request, n)}
	c.Requests[1] = Request{Prio: PrioNothing, Dests: ring.Node(2)}
	if _, err := EncodeCollection(c, n); err == nil {
		t.Error("accepted empty request with non-zero destination")
	}
}

func TestCollectionDecodeErrors(t *testing.T) {
	if _, err := DecodeCollection(nil, 4); err == nil {
		t.Error("decoded empty buffer")
	}
	if _, err := DecodeCollection([]byte{0x00, 0x00, 0x00, 0x00, 0x00}, 4); err == nil {
		t.Error("decoded packet without start bit")
	}
	// Truncated mid-request.
	buf, _ := EncodeCollection(sampleCollection(8), 8)
	if _, err := DecodeCollection(buf[:3], 8); err == nil {
		t.Error("decoded truncated packet")
	}
}

func TestDistributionRoundtrip(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 16, 64} {
		d := Distribution{
			HPNode:  n - 1,
			Granted: ring.NodeSetOf(0, n-1),
			Acks:    ring.NodeSetOf(1 % n),
			Barrier: true,
			Reduce:  0xDEADBEEFCAFEF00D,
		}
		buf, err := EncodeDistribution(d, n)
		if err != nil {
			t.Fatalf("N=%d encode: %v", n, err)
		}
		got, err := DecodeDistribution(buf, n)
		if err != nil {
			t.Fatalf("N=%d decode: %v", n, err)
		}
		if got.HPNode != d.HPNode || got.Acks != d.Acks || got.Barrier != d.Barrier || got.Reduce != d.Reduce {
			t.Fatalf("N=%d: got %+v, want %+v", n, got, d)
		}
		if !got.Granted.Contains(d.HPNode) {
			t.Fatalf("N=%d: implicit hp-node grant missing", n)
		}
		if got.Granted != d.Granted {
			t.Fatalf("N=%d: granted = %v, want %v", n, got.Granted, d.Granted)
		}
	}
}

func TestDistributionImplicitGrant(t *testing.T) {
	// Even when the encoder is handed a Distribution without the master's
	// grant bit, decoding restores it: the master's request is always
	// granted by construction.
	d := Distribution{HPNode: 2, Granted: ring.Node(0)}
	buf, err := EncodeDistribution(d, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDistribution(buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Granted.Contains(2) || !got.Granted.Contains(0) {
		t.Fatalf("Granted = %v, want {0,2}", got.Granted)
	}
}

func TestDistributionWireLength(t *testing.T) {
	for _, n := range []int{2, 5, 8, 64} {
		buf, err := EncodeDistribution(Distribution{HPNode: 0}, n)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := (DistributionBits(n) + 7) / 8
		if len(buf) != wantBytes {
			t.Errorf("N=%d: packet is %d bytes, want %d", n, len(buf), wantBytes)
		}
	}
}

func TestDistributionEncodeErrors(t *testing.T) {
	if _, err := EncodeDistribution(Distribution{HPNode: 5}, 5); err == nil {
		t.Error("accepted hp-node outside ring")
	}
	if _, err := EncodeDistribution(Distribution{HPNode: -1}, 5); err == nil {
		t.Error("accepted negative hp-node")
	}
	if _, err := EncodeDistribution(Distribution{HPNode: 0, Acks: ring.Node(5)}, 5); err == nil {
		t.Error("accepted ack field outside ring width")
	}
}

func TestDistributionDecodeErrors(t *testing.T) {
	if _, err := DecodeDistribution(nil, 5); err == nil {
		t.Error("decoded empty buffer")
	}
	if _, err := DecodeDistribution(make([]byte, 16), 5); err == nil {
		t.Error("decoded packet without start bit")
	}
	buf, _ := EncodeDistribution(Distribution{HPNode: 1}, 8)
	if _, err := DecodeDistribution(buf[:2], 8); err == nil {
		t.Error("decoded truncated packet")
	}
}

// TestCollectionRoundtripProperty fuzzes random well-formed packets through
// the codec.
func TestCollectionRoundtripProperty(t *testing.T) {
	n := 8
	mask := uint64(1)<<uint(n) - 1
	f := func(prios [8]uint8, reserves, dests [8]uint64) bool {
		c := Collection{Requests: make([]Request, n)}
		for i := range c.Requests {
			p := prios[i] & MaxPrio
			if p == PrioNothing {
				c.Requests[i] = Request{}
				continue
			}
			c.Requests[i] = Request{
				Prio:    p,
				Reserve: ring.LinkSet(reserves[i] & mask),
				Dests:   ring.NodeSet(dests[i] & mask),
			}
		}
		buf, err := EncodeCollection(c, n)
		if err != nil {
			return false
		}
		got, err := DecodeCollection(buf, n)
		if err != nil {
			return false
		}
		for i := range c.Requests {
			if got.Requests[i] != c.Requests[i] {
				return false
			}
		}
		// Re-encoding is byte-identical.
		buf2, err := EncodeCollection(got, n)
		return err == nil && bytes.Equal(buf, buf2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDistributionRoundtripProperty fuzzes distribution packets.
func TestDistributionRoundtripProperty(t *testing.T) {
	n := 8
	mask := uint64(1)<<uint(n) - 1
	f := func(hp uint8, granted, acks uint64, barrier bool, reduce uint64) bool {
		d := Distribution{
			HPNode:  int(hp) % n,
			Granted: ring.NodeSet(granted & mask),
			Acks:    ring.NodeSet(acks & mask),
			Barrier: barrier,
			Reduce:  reduce,
		}
		d.Granted = d.Granted.Add(d.HPNode)
		buf, err := EncodeDistribution(d, n)
		if err != nil {
			return false
		}
		got, err := DecodeDistribution(buf, n)
		if err != nil {
			return false
		}
		return got.HPNode == d.HPNode && got.Granted == d.Granted &&
			got.Acks == d.Acks && got.Barrier == d.Barrier && got.Reduce == d.Reduce
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeCollection(b *testing.B) {
	c := sampleCollection(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeCollection(c, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeCollection(b *testing.B) {
	buf, _ := EncodeCollection(sampleCollection(16), 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeCollection(buf, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControlCodec times the allocation-free codec entry points the
// wire checker calls every slot, at the ring sizes where no field (N=8),
// some fields (N=32: none above 56 bits, but 2209-bit packets) and every
// node-set field (N=64: 64-bit fields, two chunks each) stress the packer.
func BenchmarkControlCodec(b *testing.B) {
	for _, n := range []int{8, 32, 64} {
		c := sampleCollection(n)
		d := Distribution{HPNode: n / 2, Granted: ring.NodeSet(0x5555555555555555 & ones(n)), Acks: ring.NodeSet(ones(n)), Reduce: 0xDEADBEEFCAFEF00D}
		var w Writer
		if err := EncodeCollectionInto(&w, c, n); err != nil {
			b.Fatal(err)
		}
		coll := append([]byte(nil), w.Bytes()...)
		if err := EncodeDistributionInto(&w, d, n); err != nil {
			b.Fatal(err)
		}
		dist := append([]byte(nil), w.Bytes()...)
		var got Collection
		b.Run(fmt.Sprintf("EncodeCollectionInto/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := EncodeCollectionInto(&w, c, n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("DecodeCollectionInto/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := DecodeCollectionInto(&got, coll, n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("EncodeDistributionInto/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := EncodeDistributionInto(&w, d, n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("DecodeDistribution/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeDistribution(dist, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

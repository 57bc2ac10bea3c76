package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"silc/internal/diskio"
)

// The wire format of the four RPCs, one frame per request and per reply. A
// frame is a kind byte naming its shape, then the shape's fields in
// declaration order: int32 and uint32 scalars as 4 little-endian bytes,
// uint64 scalars (distances as IEEE 754 bits, cell words) as 8, a bool as one
// byte 0 or 1, a column as a uint32 count followed by that many fixed-width
// entries, and a reply's diskio.Stats as its five counters, 8 bytes each.
// There is no padding, no optional field and no version inside the frame:
// the /rpc/v2 path is the version. A nil and an empty column are the same
// bytes.
//
// Decoding checks every column count against the bytes left before it
// allocates, and rejects a wrong kind, a bool other than 0 or 1, a truncated
// frame and trailing bytes, so a malformed body is a decode error — a 400 on
// the node — whatever its declared counts.

// Message is one of the eight frame shapes: IntervalsReq, IntervalsResp,
// IntervalReq, IntervalResp, RaceReq, RaceResp, PathReq and PathResp, each
// through its pointer. Decoding into a Message overwrites every field and
// appends each column into the destination's own capacity, so a reused
// reply decodes without allocating once its columns are large enough.
type Message interface {
	appendFrame(b []byte) []byte
	decodeFrame(r frameReader) frameReader
}

// Frame kinds, one per Message shape. None is a byte a JSON text can start
// with.
const (
	kindIntervalsReq byte = iota + 1
	kindIntervalsResp
	kindIntervalReq
	kindIntervalResp
	kindRaceReq
	kindRaceResp
	kindPathReq
	kindPathResp
)

// frameContentType labels every frame body.
const frameContentType = "application/octet-stream"

// decodeFrame decodes body into m, which it overwrites entirely.
func decodeFrame(body []byte, m Message) error {
	r := m.decodeFrame(frameReader{b: body})
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

func (m *IntervalsReq) appendFrame(b []byte) []byte {
	b = append(b, kindIntervalsReq)
	b = appendU32(b, uint32(m.Cell))
	b = appendU32(b, m.V)
	return appendBool(b, m.ToV)
}

func (m *IntervalsReq) decodeFrame(r frameReader) frameReader {
	r.kind(kindIntervalsReq)
	m.Cell = int32(r.u32())
	m.V = r.u32()
	m.ToV = r.bool()
	return r
}

func (m *IntervalsResp) appendFrame(b []byte) []byte {
	b = append(b, kindIntervalsResp)
	b = appendCol64(b, m.Los)
	b = appendCol64(b, m.His)
	return appendIO(b, m.IO)
}

func (m *IntervalsResp) decodeFrame(r frameReader) frameReader {
	r.kind(kindIntervalsResp)
	m.Los = r.col64(m.Los)
	m.His = r.col64(m.His)
	m.IO = r.io()
	return r
}

func (m *IntervalReq) appendFrame(b []byte) []byte {
	b = append(b, kindIntervalReq)
	b = appendU32(b, uint32(m.Cell))
	b = appendU32(b, m.U)
	b = appendU32(b, m.V)
	b = appendCol32(b, m.Vs)
	return appendCol64(b, m.Cells)
}

func (m *IntervalReq) decodeFrame(r frameReader) frameReader {
	r.kind(kindIntervalReq)
	m.Cell = int32(r.u32())
	m.U = r.u32()
	m.V = r.u32()
	m.Vs = col32(&r, m.Vs)
	m.Cells = r.col64(m.Cells)
	return r
}

func (m *IntervalResp) appendFrame(b []byte) []byte {
	b = append(b, kindIntervalResp)
	b = appendU64(b, m.Lo)
	b = appendU64(b, m.Hi)
	b = appendCol64(b, m.Los)
	b = appendCol64(b, m.His)
	b = appendCol64(b, m.Lbs)
	return appendIO(b, m.IO)
}

func (m *IntervalResp) decodeFrame(r frameReader) frameReader {
	r.kind(kindIntervalResp)
	m.Lo = r.u64()
	m.Hi = r.u64()
	m.Los = r.col64(m.Los)
	m.His = r.col64(m.His)
	m.Lbs = r.col64(m.Lbs)
	m.IO = r.io()
	return r
}

func (m *RaceReq) appendFrame(b []byte) []byte {
	b = append(b, kindRaceReq)
	b = appendU32(b, uint32(m.Cell))
	b = appendCol32(b, m.Dsts)
	b = appendCol32(b, m.Ns)
	b = appendCol64(b, m.Offs)
	return appendCol32(b, m.Us)
}

func (m *RaceReq) decodeFrame(r frameReader) frameReader {
	r.kind(kindRaceReq)
	m.Cell = int32(r.u32())
	m.Dsts = col32(&r, m.Dsts)
	m.Ns = col32(&r, m.Ns)
	m.Offs = r.col64(m.Offs)
	m.Us = col32(&r, m.Us)
	return r
}

func (m *RaceResp) appendFrame(b []byte) []byte {
	b = append(b, kindRaceResp)
	b = appendCol64(b, m.Ds)
	b = appendCol32(b, m.Args)
	return appendIO(b, m.IO)
}

func (m *RaceResp) decodeFrame(r frameReader) frameReader {
	r.kind(kindRaceResp)
	m.Ds = r.col64(m.Ds)
	m.Args = col32(&r, m.Args)
	m.IO = r.io()
	return r
}

func (m *PathReq) appendFrame(b []byte) []byte {
	b = append(b, kindPathReq)
	b = appendU32(b, uint32(m.Cell))
	b = appendU32(b, m.U)
	return appendU32(b, m.V)
}

func (m *PathReq) decodeFrame(r frameReader) frameReader {
	r.kind(kindPathReq)
	m.Cell = int32(r.u32())
	m.U = r.u32()
	m.V = r.u32()
	return r
}

func (m *PathResp) appendFrame(b []byte) []byte {
	b = append(b, kindPathResp)
	b = appendCol32(b, m.Verts)
	return appendIO(b, m.IO)
}

func (m *PathResp) decodeFrame(r frameReader) frameReader {
	r.kind(kindPathResp)
	m.Verts = col32(&r, m.Verts)
	m.IO = r.io()
	return r
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendCol32[T ~uint32 | ~int32](b []byte, col []T) []byte {
	b = appendU32(b, uint32(len(col)))
	for _, v := range col {
		b = appendU32(b, uint32(v))
	}
	return b
}

func appendCol64(b []byte, col []uint64) []byte {
	b = appendU32(b, uint32(len(col)))
	for _, v := range col {
		b = appendU64(b, v)
	}
	return b
}

func appendIO(b []byte, s diskio.Stats) []byte {
	for _, v := range [...]int64{s.Hits, s.Misses, s.Evictions, s.Reads, s.BlocksDecoded} {
		b = appendU64(b, uint64(v))
	}
	return b
}

// frameReader consumes one frame. The first error sticks: every later read
// returns zero values, so a decoder reads its fields unconditionally and
// checks once at the end. Decoders take and return it by value, which keeps
// it off the heap behind the Message interface.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("bad frame: "+format, args...)
	}
	r.b = nil
}

// take consumes the next n bytes, or fails on a frame shorter than that.
func (r *frameReader) take(n int) []byte {
	if n > len(r.b) {
		if r.err == nil {
			r.fail("truncated: %d bytes wanted, %d left", n, len(r.b))
		}
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *frameReader) kind(want byte) {
	if p := r.take(1); p != nil && p[0] != want {
		r.fail("kind %d where %d was expected", p[0], want)
	}
}

func (r *frameReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *frameReader) bool() bool {
	p := r.take(1)
	if p != nil && p[0] > 1 {
		r.fail("bool byte %d", p[0])
	}
	return p != nil && p[0] == 1
}

// column reads a column's count and takes its entries of size bytes each,
// failing before anything is allocated when they would overrun the frame.
func (r *frameReader) column(size int) []byte {
	n := r.u32()
	if uint64(n)*uint64(size) > uint64(len(r.b)) {
		r.fail("column of %d entries overruns the %d bytes left", n, len(r.b))
		return nil
	}
	return r.take(int(n) * size)
}

// col32 decodes a 4-byte column into dst's capacity, which it reuses.
func col32[T ~uint32 | ~int32](r *frameReader, dst []T) []T {
	p := r.column(4)
	dst = dst[:0]
	if cap(dst) < len(p)/4 {
		dst = make([]T, 0, len(p)/4)
	}
	for i := 0; i < len(p); i += 4 {
		dst = append(dst, T(binary.LittleEndian.Uint32(p[i:])))
	}
	return dst
}

// col64 decodes an 8-byte column into dst's capacity, which it reuses.
func (r *frameReader) col64(dst []uint64) []uint64 {
	p := r.column(8)
	dst = dst[:0]
	if cap(dst) < len(p)/8 {
		dst = make([]uint64, 0, len(p)/8)
	}
	for i := 0; i < len(p); i += 8 {
		dst = append(dst, binary.LittleEndian.Uint64(p[i:]))
	}
	return dst
}

func (r *frameReader) io() diskio.Stats {
	return diskio.Stats{
		Hits:          int64(r.u64()),
		Misses:        int64(r.u64()),
		Evictions:     int64(r.u64()),
		Reads:         int64(r.u64()),
		BlocksDecoded: int64(r.u64()),
	}
}

// frameBuf is a pooled frame body, recycled between RPCs on both ends.
type frameBuf struct{ b []byte }

// maxPooledFrame caps what a recycled buffer may keep: one outsized batch
// must not pin its memory in the pool.
const maxPooledFrame = 1 << 20

var frameBufs = sync.Pool{New: func() any { return new(frameBuf) }}

func getFrameBuf() *frameBuf { return frameBufs.Get().(*frameBuf) }

func putFrameBuf(f *frameBuf) {
	if cap(f.b) <= maxPooledFrame {
		frameBufs.Put(f)
	}
}

// readBody reads r to its end into b's capacity; r enforces any size limit.
// A declared length sizes the buffer up front, but only up to what the pool
// keeps: a peer's header alone never makes a large allocation.
func readBody(r io.Reader, b []byte, declared int64) ([]byte, error) {
	b = b[:0]
	if declared > 0 && declared < maxPooledFrame && int64(cap(b)) <= declared {
		b = make([]byte, 0, declared+1) // +1: the read that sees EOF needs room
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

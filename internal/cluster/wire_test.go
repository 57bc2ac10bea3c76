package cluster

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"silc/internal/diskio"
)

// Bit patterns a distance column must carry unchanged: NaN payloads of
// both signs (quiet and signalling), ±Inf, −0, the smallest and largest
// subnormals, and the all-ones word.
var edgeBits = []uint64{
	0x7ff8000000000001, 0xfff4000000000000, 0x7ff0000000000000, 0xfff0000000000000,
	0x8000000000000000, 1, 0x000fffffffffffff, math.MaxUint64,
}

var edgeIDs = []uint32{0, 1, math.MaxUint32 - 1, math.MaxUint32}

var edgeInts = []int32{math.MinInt32, -1, 0, math.MaxInt32}

var edgeIO = diskio.Stats{Hits: math.MaxInt64, Misses: -1, Evictions: 1, Reads: math.MinInt64, BlocksDecoded: 7}

// wireShapes holds every frame shape three ways: every column filled with
// edge values, every column nil, and every column empty but not nil.
func wireShapes() []struct {
	name             string
	full, nils, empt Message
} {
	u32, u64, i32 := []uint32{}, []uint64{}, []int32{}
	return []struct {
		name             string
		full, nils, empt Message
	}{
		{"IntervalsReq",
			&IntervalsReq{Cell: math.MinInt32, V: math.MaxUint32, ToV: true},
			&IntervalsReq{Cell: math.MaxInt32}, // no column: nil and empty are one value
			&IntervalsReq{Cell: math.MaxInt32}},
		{"IntervalsResp",
			&IntervalsResp{Los: edgeBits, His: edgeBits[3:], IO: edgeIO},
			&IntervalsResp{},
			&IntervalsResp{Los: u64, His: u64}},
		{"IntervalReq",
			&IntervalReq{Cell: math.MaxInt32, U: math.MaxUint32, V: math.MaxUint32, Vs: edgeIDs, Cells: edgeBits},
			&IntervalReq{Cell: 3, U: 1, V: 2},
			&IntervalReq{Cell: 3, U: 1, V: 2, Vs: u32, Cells: u64}},
		{"IntervalResp",
			&IntervalResp{Lo: edgeBits[0], Hi: edgeBits[4], Los: edgeBits, His: edgeBits[1:], Lbs: edgeBits[2:], IO: edgeIO},
			&IntervalResp{Lo: edgeBits[5], Hi: edgeBits[2]},
			&IntervalResp{Lo: edgeBits[5], Hi: edgeBits[2], Los: u64, His: u64, Lbs: u64}},
		{"RaceReq",
			&RaceReq{Cell: math.MinInt32, Dsts: edgeIDs, Ns: edgeInts, Offs: edgeBits, Us: edgeIDs[1:]},
			&RaceReq{Cell: 1},
			&RaceReq{Cell: 1, Dsts: u32, Ns: i32, Offs: u64, Us: u32}},
		{"RaceResp",
			&RaceResp{Ds: edgeBits, Args: edgeInts, IO: edgeIO},
			&RaceResp{IO: edgeIO},
			&RaceResp{Ds: u64, Args: i32, IO: edgeIO}},
		{"PathReq",
			&PathReq{Cell: -1, U: math.MaxUint32, V: 0},
			&PathReq{Cell: 2, U: 5, V: 5},
			&PathReq{Cell: 2, U: 5, V: 5}},
		{"PathResp",
			&PathResp{Verts: edgeIDs, IO: edgeIO},
			&PathResp{},
			&PathResp{Verts: u32}},
	}
}

// fresh returns a zero value of m's shape.
func fresh(m Message) Message { return reflect.New(reflect.TypeOf(m).Elem()).Interface().(Message) }

// TestWireRoundTrip: every frame shape decodes to the value it was encoded
// from, bit for bit, and re-encodes to the same bytes. A nil and an empty
// column are the same bytes, and decoding into a reused value that held
// longer columns and other scalars leaves exactly the new frame's contents.
func TestWireRoundTrip(t *testing.T) {
	for _, sh := range wireShapes() {
		t.Run(sh.name, func(t *testing.T) {
			full := sh.full.appendFrame(nil)
			got := fresh(sh.full)
			if err := decodeFrame(full, got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, sh.full) {
				t.Fatalf("decoded %+v\nencoded %+v", got, sh.full)
			}
			if again := got.appendFrame(nil); !bytes.Equal(again, full) {
				t.Fatalf("re-encoding changed the frame:\n%x\n%x", again, full)
			}

			nils, empt := sh.nils.appendFrame(nil), sh.empt.appendFrame(nil)
			if !bytes.Equal(nils, empt) {
				t.Fatalf("nil columns %x, empty columns %x", nils, empt)
			}
			zero := fresh(sh.nils)
			if err := decodeFrame(nils, zero); err != nil || !reflect.DeepEqual(zero, sh.nils) {
				t.Fatalf("nil columns decoded to %+v (err %v), want %+v", zero, err, sh.nils)
			}

			// Reuse: the full value's columns have room; the nil frame must
			// leave none of their entries and none of its scalars behind.
			if err := decodeFrame(nils, got); err != nil {
				t.Fatal(err)
			}
			if again := got.appendFrame(nil); !bytes.Equal(again, nils) {
				t.Fatalf("decoding into a reused value left stale fields:\n%x\n%x", again, nils)
			}
			if err := decodeFrame(full, got); err != nil || !reflect.DeepEqual(got, sh.full) {
				t.Fatalf("second decode into a reused value: %+v (err %v)", got, err)
			}
		})
	}
}

// TestWireRejectsMalformed: every proper prefix of a frame, a frame with a
// byte to spare, a frame of another shape, a non-canonical bool, a column
// count beyond the body and a JSON body fail to decode, and a failed decode
// does not allocate the declared column.
func TestWireRejectsMalformed(t *testing.T) {
	shapes := wireShapes()
	for _, sh := range shapes {
		frame := sh.full.appendFrame(nil)
		for n := 0; n < len(frame); n++ {
			if err := decodeFrame(frame[:n], fresh(sh.full)); err == nil {
				t.Fatalf("%s: a %d-byte prefix of a %d-byte frame decoded", sh.name, n, len(frame))
			}
		}
		if err := decodeFrame(append(frame, 0), fresh(sh.full)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("%s: a trailing byte: %v", sh.name, err)
		}
		for _, other := range shapes {
			if other.name != sh.name {
				if err := decodeFrame(frame, fresh(other.full)); err == nil {
					t.Fatalf("%s frame decoded as %s", sh.name, other.name)
				}
			}
		}
		if err := decodeFrame([]byte(`{"cell":0}`), fresh(sh.full)); err == nil {
			t.Fatalf("%s: a JSON body decoded", sh.name)
		}
	}

	notBool := (&IntervalsReq{ToV: true}).appendFrame(nil)
	notBool[len(notBool)-1] = 2
	if err := decodeFrame(notBool, new(IntervalsReq)); err == nil {
		t.Fatal("a bool byte of 2 decoded")
	}

	// A race whose offsets column declares 2^32−1 entries in a short body.
	bomb := (&RaceReq{Cell: 0, Dsts: []uint32{1}, Ns: []int32{1}}).appendFrame(nil)
	bomb = append(bomb[:len(bomb)-8], 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0)
	var req RaceReq
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decodeFrame(bomb, &req)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Fatalf("a column of 2^32−1 entries in a %d-byte body: %v", len(bomb), err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; req.Offs != nil || n > 1<<16 {
		t.Fatalf("the rejected column left %d offsets and cost %d bytes", len(req.Offs), n)
	}
}

// TestWireDecodeReusesColumns: a warm reply decodes without allocating.
func TestWireDecodeReusesColumns(t *testing.T) {
	frame := (&RaceResp{Ds: edgeBits, Args: edgeInts, IO: edgeIO}).appendFrame(nil)
	var resp RaceResp
	if err := decodeFrame(frame, &resp); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { decodeFrame(frame, &resp) }); allocs != 0 {
		t.Fatalf("a warm decode allocated %.0f times", allocs)
	}
}

// goldenFrames is one request and one reply per endpoint, as a router and a
// node exchange them.
func goldenFrames() []struct {
	name string
	m    Message
} {
	io := diskio.Stats{Hits: 12, Misses: 3, Evictions: 1, Reads: 3, BlocksDecoded: 40}
	return []struct {
		name string
		m    Message
	}{
		{"intervals.req", &IntervalsReq{Cell: 2, V: 17, ToV: true}},
		{"intervals.resp", &IntervalsResp{Los: []uint64{Bits(0.5), Bits(math.Inf(1))}, His: []uint64{Bits(0.75), Bits(math.Inf(1))}, IO: io}},
		{"interval.req", &IntervalReq{Cell: 1, U: 4, Vs: []uint32{9, 30}, Cells: []uint64{0, 805306374}}},
		{"interval.resp", &IntervalResp{Los: []uint64{Bits(0.125), 0}, His: []uint64{Bits(0.25), 0}, Lbs: []uint64{0, Bits(1.5)}, IO: io}},
		{"race.req", &RaceReq{Cell: 3, Dsts: []uint32{7, 8}, Ns: []int32{1, 2}, Offs: []uint64{0, Bits(0.25), Bits(math.Inf(1))}, Us: []uint32{0, 5, 6}}},
		{"race.resp", &RaceResp{Ds: []uint64{Bits(1.0625), Bits(math.Inf(1))}, Args: []int32{0, -1}, IO: io}},
		{"path.req", &PathReq{Cell: 0, U: 1, V: 2}},
		{"path.resp", &PathResp{Verts: []uint32{1, 4, 2}, IO: io}},
	}
}

// TestWireGolden pins the bytes of goldenFrames: a change to the wire is a
// change of protocol version, made on purpose. Regenerate the file with
// SILC_UPDATE_GOLDEN=1 only together with a new /rpc path prefix.
func TestWireGolden(t *testing.T) {
	var got strings.Builder
	fmt.Fprintln(&got, "# One request and one reply frame per /rpc/v2 endpoint, hex; see wire_test.go.")
	for _, g := range goldenFrames() {
		fmt.Fprintf(&got, "%s %s\n", g.name, hex.EncodeToString(g.m.appendFrame(nil)))
	}
	path := filepath.Join("testdata", "wire.golden")
	if os.Getenv("SILC_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (regenerate with SILC_UPDATE_GOLDEN=1): %v", path, err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			w := "(missing)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("%s line %d drifted:\n  got  %s\n  want %s", path, i+1, gotLines[i], w)
		}
	}
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%s has %d lines, the frames %d", path, len(wantLines), len(gotLines))
	}
}

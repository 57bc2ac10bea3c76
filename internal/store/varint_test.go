package store

import (
	"encoding/binary"
	"testing"
)

// TestShortUvarintMatchesLibrary holds the decoder's inline varint path to
// binary.Uvarint: over every first and second byte and a spread of third
// bytes, a short decode must equal the library's, and the short path may
// defer only where the library needs a fourth byte or the input is shorter
// than three bytes.
func TestShortUvarintMatchesLibrary(t *testing.T) {
	for _, p := range [][]byte{nil, {0x05}, {0x85, 0x01}} {
		if _, w := shortUvarint(p); w != 0 {
			t.Fatalf("%x: short path decoded a %d-byte input", p, len(p))
		}
	}
	for b0 := 0; b0 < 256; b0++ {
		for b1 := 0; b1 < 256; b1++ {
			for _, b2 := range []byte{0x00, 0x01, 0x2a, 0x7f, 0x80, 0x81, 0xc0, 0xff} {
				p := []byte{byte(b0), byte(b1), b2}
				v, w := shortUvarint(p)
				lv, lw := binary.Uvarint(p)
				if w == 0 {
					if lw != 0 {
						t.Fatalf("%x: short path deferred a varint the library reads in %d bytes", p, lw)
					}
					continue
				}
				if v != lv || w != lw {
					t.Fatalf("%x: short path (%d, %d), library (%d, %d)", p, v, w, lv, lw)
				}
			}
		}
	}
}

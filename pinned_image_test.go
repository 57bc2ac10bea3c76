package silc_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"silc"
)

// TestPagedImageBytesPinned pins the SHA-256 of paged images in shapes the
// grid8 goldens do not reach: a road map built with a proximity radius (the
// radius word, out-of-range vertices left out of every block) and a 4-cell
// sharded build (the lenient flag, the cell table).
// Each image must also survive open → WritePaged byte for byte, and the
// ImageInfo WritePaged returns must total the bytes it wrote.
func TestPagedImageBytesPinned(t *testing.T) {
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 24, Cols: 24, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		opts   silc.BuildOptions
		sha256 string
	}{
		{"proximity/delta", silc.BuildOptions{ProximityRadius: 0.2}, "e7435b5fa148dc5528d9ad3b4be9686f29ac5c53ba072b076b706d27691f45ca"},
		{"sharded4/delta", silc.BuildOptions{Partitions: 4}, "1ff0c8b8127a0d6bb7ef5aadb2bab1541f1a268c41515386cc64c5569e30f3e7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			built, err := silc.Build(net, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var img, re bytes.Buffer
			info, err := built.WritePaged(&img)
			if err != nil {
				t.Fatal(err)
			}
			opened, err := silc.OpenEngineAt(bytes.NewReader(img.Bytes()), int64(img.Len()), nil, silc.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := opened.WritePaged(&re); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(img.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
				t.Errorf("image of %d bytes has SHA-256 %s, pinned %s", img.Len(), got, tc.sha256)
			}
			if !bytes.Equal(re.Bytes(), img.Bytes()) {
				t.Error("open → WritePaged is not byte-identical")
			}
			if info.Total != int64(img.Len()) {
				t.Errorf("WritePaged reported Total = %d, wrote %d bytes", info.Total, img.Len())
			}
		})
	}
}

// TestBuildImagePinned pins the SHA-256 of the paged image of three builds, so
// a change to the build — the heap, the per-source search, the quadtree
// builder — that moves a single first hop or ratio bound turns it red. When
// two shortest paths tie, the first hop is the one the search settles first,
// so the image depends on the heap's pop order among equal keys: the 32×32
// lattice is full of such ties, the 64×64 road map is the benchmark's shape,
// and the proximity build covers the radius cut-off.
func TestBuildImagePinned(t *testing.T) {
	if silc.RaceEnabled {
		t.Skip("builds three indexes of up to 4,096 vertices; too slow under -race")
	}
	for _, tc := range []struct {
		name   string
		net    func() (*silc.Network, error)
		radius float64
		sha256 string
	}{
		{"grid32", func() (*silc.Network, error) { return silc.GenerateGrid(32, 32) }, 0, "8785fca255ab700ee4e55d2391a0066608a5a5c24300dedfc76ca755353b9839"},
		{"road64", func() (*silc.Network, error) {
			return silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 64, Cols: 64, Seed: 1})
		}, 0, "7ea2f37478790f30e98882a66bd4da235e5e66777f0b80037a5aa055c91e7642"},
		{"road48/proximity", func() (*silc.Network, error) {
			return silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 48, Cols: 48, Seed: 3})
		}, 0.15, "4af165433360918d53a45220de39b0c5bc8f3ae5a6263426fc76d14e57f37228"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.net()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := silc.Build(net, silc.BuildOptions{ProximityRadius: tc.radius})
			if err != nil {
				t.Fatal(err)
			}
			var img bytes.Buffer
			if _, err := ix.WritePaged(&img); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(img.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
				t.Errorf("image of %d bytes has SHA-256 %s, pinned %s", img.Len(), got, tc.sha256)
			}
		})
	}
}

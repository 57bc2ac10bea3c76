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
		{"proximity/delta", silc.BuildOptions{ProximityRadius: 0.2}, "8e364f35ddf461811bae4c95e49e585219decf209d144305e4d03871c32ca4e7"},
		{"sharded4/delta", silc.BuildOptions{Partitions: 4}, "17020ee03ab9647b671e3b78caa2c1c93b4980b6cb2ee4d9c32084f48f9f513f"},
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
		{"grid32", func() (*silc.Network, error) { return silc.GenerateGrid(32, 32) }, 0, "3f2c80ce75585f36fb25b1461d5a2a9dcc2bba4991d51b815a610de2bdfdfbf4"},
		{"road64", func() (*silc.Network, error) {
			return silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 64, Cols: 64, Seed: 1})
		}, 0, "1dbbcc6a61208e9d3be6f90977abc89d9af5aba8b12f0e1cf930586d23ae314d"},
		{"road48/proximity", func() (*silc.Network, error) {
			return silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 48, Cols: 48, Seed: 3})
		}, 0.15, "5e9691c1fb9354927134307d651a817544436873964d06b8c522d9648373fd38"},
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

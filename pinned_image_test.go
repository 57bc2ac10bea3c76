package silc_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"silc"
)

// TestPagedImageBytesPinned pins the SHA-256 of paged images in shapes the
// grid8 goldens do not reach: a monolithic road map (irregular degrees and
// weights) and a 4-cell sharded build of it (the lenient flag, the cell
// table).
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
		{"road24/delta", silc.BuildOptions{}, "28c839117f8a1984ff9fb42ae67f25af4d4339547d433fd6489b500205bd20ae"},
		{"sharded4/delta", silc.BuildOptions{Partitions: 4}, "bcd6f218d9a07568c0f331cf8160004291c3b3586335e38eb1dfd1bd92a1c803"},
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

// TestBuildImagePinned pins the SHA-256 of the paged image of two builds, so
// a change to the build — the heap, the per-source search, the quadtree
// builder — that moves a single first hop or ratio bound turns it red. When
// two shortest paths tie, the first hop is the one the search settles first,
// so the image depends on the heap's pop order among equal keys: the 32×32
// lattice is full of such ties and the 64×64 road map is the benchmark's
// shape.
func TestBuildImagePinned(t *testing.T) {
	if silc.RaceEnabled {
		t.Skip("builds two indexes of up to 4,096 vertices; too slow under -race")
	}
	for _, tc := range []struct {
		name   string
		net    func() (*silc.Network, error)
		sha256 string
	}{
		{"grid32", func() (*silc.Network, error) { return silc.GenerateGrid(32, 32) }, "3f2c80ce75585f36fb25b1461d5a2a9dcc2bba4991d51b815a610de2bdfdfbf4"},
		{"road64", func() (*silc.Network, error) {
			return silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 64, Cols: 64, Seed: 1})
		}, "1dbbcc6a61208e9d3be6f90977abc89d9af5aba8b12f0e1cf930586d23ae314d"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.net()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := silc.Build(net, silc.BuildOptions{})
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

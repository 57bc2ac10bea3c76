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
// sharded build (the lenient flag, the cell table), each in both encodings.
// Each image must also survive open → WritePaged byte for byte, and
// PagedImageInfo must predict its length.
func TestPagedImageBytesPinned(t *testing.T) {
	net, err := silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: 24, Cols: 24, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		sharded bool
		comp    silc.Compression
		sha256  string
	}{
		{"proximity/none", false, silc.CompressionNone, "a27be3d673680a29733cc83673edb21707136a9790364919913b8b53db57e1b0"},
		{"proximity/delta", false, silc.CompressionDelta, "e7435b5fa148dc5528d9ad3b4be9686f29ac5c53ba072b076b706d27691f45ca"},
		{"sharded4/none", true, silc.CompressionNone, "874af7333329a027747dc426de11e3f67f27fb9d960853d3a637b338e259b204"},
		{"sharded4/delta", true, silc.CompressionDelta, "1ff0c8b8127a0d6bb7ef5aadb2bab1541f1a268c41515386cc64c5569e30f3e7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var img, re bytes.Buffer
			var info silc.ImageInfo
			if tc.sharded {
				sx, err := silc.BuildShardedIndex(net, silc.ShardedBuildOptions{Partitions: 4, Compression: tc.comp})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sx.WritePaged(&img); err != nil {
					t.Fatal(err)
				}
				if info, err = sx.PagedImageInfo(); err != nil {
					t.Fatal(err)
				}
				opened, err := silc.OpenShardedIndexAt(bytes.NewReader(img.Bytes()), int64(img.Len()), silc.ShardedBuildOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := opened.WritePaged(&re); err != nil {
					t.Fatal(err)
				}
			} else {
				ix, err := silc.BuildIndex(net, silc.BuildOptions{ProximityRadius: 0.2, Compression: tc.comp})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ix.WritePaged(&img); err != nil {
					t.Fatal(err)
				}
				if info, err = ix.PagedImageInfo(); err != nil {
					t.Fatal(err)
				}
				opened, err := silc.OpenIndexAt(bytes.NewReader(img.Bytes()), int64(img.Len()), silc.BuildOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := opened.WritePaged(&re); err != nil {
					t.Fatal(err)
				}
			}
			sum := sha256.Sum256(img.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
				t.Errorf("image of %d bytes has SHA-256 %s, pinned %s", img.Len(), got, tc.sha256)
			}
			if !bytes.Equal(re.Bytes(), img.Bytes()) {
				t.Error("open → WritePaged is not byte-identical")
			}
			if info.Total != int64(img.Len()) {
				t.Errorf("PagedImageInfo().Total = %d, image is %d bytes", info.Total, img.Len())
			}
		})
	}
}

// TestBuildImagePinned pins the SHA-256 of the PG2 image of three builds, so
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
			ix, err := silc.BuildIndex(net, silc.BuildOptions{ProximityRadius: tc.radius, Compression: silc.CompressionDelta})
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

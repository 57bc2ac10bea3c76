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

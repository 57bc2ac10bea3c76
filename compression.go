package silc

import "silc/internal/store"

// Compression selects the block-page encoding of paged index images
// (WritePaged / WriteFile / silcbuild -o).
//
// CompressionNone writes the fixed-width 16-byte block entries (formats
// SILCPG1 / SILCSPG1). CompressionDelta encodes each vertex's Morton-block
// run as a delta+varint stream (SILCPG2 / SILCSPG2), typically shrinking
// the image by more than 2x. Both encodings read back identically —
// OpenIndex, OpenShardedIndex, and OpenEngine sniff the format — so the
// knob trades image size against a little per-page decode work without
// ever changing query answers.
type Compression = store.Compression

const (
	// CompressionNone is the fixed-width 16-byte block-entry encoding.
	CompressionNone = store.CompressionNone
	// CompressionDelta is the delta+varint run encoding.
	CompressionDelta = store.CompressionDelta
)

// ParseCompression parses a -compress flag value: "none" or "delta".
func ParseCompression(s string) (Compression, error) { return store.ParseCompression(s) }

// ImageInfo describes the section layout of a paged index image — what
// silcbuild prints as its per-section size table. Ratio() reports the
// whole-image compression ratio against the fixed-width encoding of the
// same index.
type ImageInfo = store.ImageInfo

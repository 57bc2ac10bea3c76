package store

import (
	"testing"

	"silc/internal/diskio"
	"silc/internal/graph"
)

// runSpan is a run's expected page span: ok is false when it spans none.
type runSpan struct {
	first, last diskio.PageID
	ok          bool
}

// checkRunPages builds a store over the given run byte lengths and page
// size and checks each run's page span and the block section's page count.
func checkRunPages(t *testing.T, pageSize int, lens []int64, want []runSpan, wantPages int64) {
	t.Helper()
	offs := make([]int64, len(lens)+1)
	for v, l := range lens {
		offs[v+1] = offs[v] + l
	}
	sb := &superblock{pageSize: pageSize, blockBytes: offs[len(lens)]}
	sb.layOut()
	if sb.blockPages != wantPages {
		t.Errorf("runs %v on %d-byte pages: blockPages = %d, want %d", lens, pageSize, sb.blockPages, wantPages)
	}
	s := &Store{sb: sb, runOffs: offs}
	for v, w := range want {
		first, last, ok := s.runPages(graph.VertexID(v))
		if first != w.first || last != w.last || ok != w.ok {
			t.Errorf("runs %v on %d-byte pages: runPages(%d) = %d, %d, %v; want %d, %d, %v", lens, pageSize, v, first, last, ok, w.first, w.last, w.ok)
		}
	}
}

// TestRunPagesPaging pins the page span of a run. Runs of 10, 0 and 300
// 16-byte blocks on 4096-byte pages lie at bytes [0, 160), [160, 160) and
// [160, 4960): the first spans page 0, the second none, and the third pages
// 0 and 1 (its block 250 is byte 4160), two pages in all. Runs of 10, 0, 30
// and 8 bytes on 16-byte pages lie at [0, 10), [10, 10), [10, 40) and
// [40, 48): the third spans pages 0 through 2, and the fourth, ending on a
// page boundary, page 2 alone.
func TestRunPagesPaging(t *testing.T) {
	checkRunPages(t, 4096, []int64{160, 0, 4800},
		[]runSpan{{0, 0, true}, {0, 0, false}, {0, 1, true}}, 2)
	checkRunPages(t, 16, []int64{10, 0, 30, 8},
		[]runSpan{{0, 0, true}, {0, 0, false}, {0, 2, true}, {2, 2, true}}, 3)
}

// TestRunPagesEmpty checks that runs holding no blocks span no page and
// leave the block section with no pages.
func TestRunPagesEmpty(t *testing.T) {
	checkRunPages(t, 4096, []int64{0, 0}, []runSpan{{0, 0, false}, {0, 0, false}}, 0)
}

package partition

// Internals the external tests (package partition_test, which may import
// internal/cluster for remote cells) need to see.

// LabelRowsPerCell is the label tables' per-cell row bound.
var LabelRowsPerCell = labelRowsPerCell

// LabelRowCounts returns how many rows each cell's label table holds.
func (s *Sharded) LabelRowCounts() []int {
	out := make([]int, len(s.labels.cells))
	for c := range s.labels.cells {
		t := &s.labels.cells[c]
		t.mu.Lock()
		out[c] = len(t.rows)
		t.mu.Unlock()
	}
	return out
}

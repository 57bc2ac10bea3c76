package partition

import (
	"sync"

	"silc/internal/core"
	"silc/internal/graph"
	"silc/internal/obs"
)

// The gateway labels.
//
// A cross-cell query is answered from two labels toward the cells' gateways
// (boundary vertices), stitched by the closure D:
//
//   - the source label du — the exact within-cell distance from the source to
//     every gateway of its own cell. It depends on the source alone, lives on
//     the per-query router, and is computed by one bounded search
//     (router.ensureDU: an sssp.Search kept inside the source's cell and
//     stopped at the cell's last gateway);
//   - the destination label — the zero-refinement interval between a vertex v
//     and every gateway of v's cell. It is read off the cell's immutable
//     image and depends on nothing that changes while the image is served, so
//     the index keeps it: the rows below.
//
// A remembered row has the very bits a fresh computation returns; only the
// number of quadtree lookups (in process: |B_c| trees, one page touch each
// under a small pool) or RPCs (remote: one `intervals` call) changes. What it
// helps is exactly the requests whose DESTINATION repeats: a kNN or range
// search asks for the row of every object vertex it inspects, and on a static
// object set those are the same vertices query after query. A /distance
// destination drawn uniformly from the map almost never repeats inside the
// table's lifetime, so distance queries gain nothing (and lose nothing but
// one arbitrary row per miss).

// labelRowsPerCell bounds one cell's table. A row for cell c is nb_c
// intervals of 16 bytes, and the rows' lengths sum to nb over the cells, so
// 3·nb/4 rows per cell cap all tables together at 3/4·nb·16·nb = 12·nb²
// bytes — the size of the boundary closure (8-byte distance + 4-byte hop per
// pair) the index already holds. The tables can at most double its routing
// state.
func labelRowsPerCell(nb int) int {
	return max(1, 3*nb/4)
}

type labelKey struct {
	v   graph.VertexID // cell-local
	toV bool           // gateway→v when true, v→gateway when false
}

// labelTable is one cell's bounded table of destination-label rows, safe for
// concurrent queries. Rows are immutable once stored and are handed out
// shared. One plain mutex per cell: it is held for a map lookup, against
// fills that cost |B_c| quadtree lookups or an RPC.
type labelTable struct {
	mu   sync.Mutex
	rows map[labelKey][]core.Interval
}

// labelTables is the index's set of per-cell tables with their counters. The
// counters are zero-value obs handles owned here; the engine's registry
// exports them by value (LabelStats) as silc_partition_label_*.
type labelTables struct {
	cells  []labelTable
	limit  int // rows per cell
	hits   obs.Counter
	misses obs.Counter
	rows   obs.Gauge
}

func newLabelTables(p, nb int) *labelTables {
	return &labelTables{cells: make([]labelTable, p), limit: labelRowsPerCell(nb)}
}

// LabelStats is a snapshot of the destination-label tables' counters.
type LabelStats struct {
	Hits, Misses int64
	// Rows is the number of rows held right now, all cells together.
	Rows int64
}

// LabelStats returns the destination-label tables' counters.
func (s *Sharded) LabelStats() LabelStats {
	l := s.labels
	return LabelStats{Hits: l.hits.Value(), Misses: l.misses.Value(), Rows: l.rows.Value()}
}

// labelRow returns the zero-refinement interval between cell c's vertex v
// (cell-local) and every gateway of c, in closure row order: gateway→v when
// toV, v→gateway otherwise. The row is shared between queries and read-only.
// A miss fills it with one BoundaryIntervals call on the cell — |B_c| lookups
// in process, one RPC on a remote cell — and stores it unless the fill left a
// failure on qc: a failed lookup's loose [0,+Inf) stand-in must never outlive
// the fault.
func (s *Sharded) labelRow(qc *core.QueryContext, c int32, v graph.VertexID, toV bool) []core.Interval {
	l, t, key := s.labels, &s.labels.cells[c], labelKey{v: v, toV: toV}
	t.mu.Lock()
	row, ok := t.rows[key]
	t.mu.Unlock()
	if ok {
		l.hits.Inc()
		return row
	}
	l.misses.Inc()
	row = s.qcell(c).BoundaryIntervals(qc, v, toV)
	if !qc.Failed() && t.put(key, row, l.limit) {
		l.rows.Add(1)
	}
	return row
}

// put stores row under k and reports whether the table grew. A full table
// first drops one arbitrary row (the first the map iteration yields): rows
// that are in use come back at the cost of one fill, and no bookkeeping rides
// on the hit path.
func (t *labelTable) put(k labelKey, row []core.Interval, limit int) (grew bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.rows[k]; ok {
		return false // a concurrent miss stored the same bits first
	}
	if t.rows == nil {
		t.rows = make(map[labelKey][]core.Interval)
	}
	grew = true
	if len(t.rows) >= limit {
		for victim := range t.rows {
			delete(t.rows, victim)
			grew = false
			break
		}
	}
	t.rows[k] = row
	return grew
}

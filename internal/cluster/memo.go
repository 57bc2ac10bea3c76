package cluster

import (
	"sync"

	"silc/internal/core"
	"silc/internal/graph"
)

// The gateway-interval memo.
//
// An `intervals` reply — the zero-refinement intervals between a vertex v
// and every boundary vertex of v's cell — is read off the cell's immutable
// image. It does not depend on the query's source, on the object set, or on
// anything else that changes while the image is served, so the router may
// keep it: a remembered row has the very bits a fresh call would return, and
// only the number of RPCs (and the node-side page reads they cause) changes.
//
// What it helps is therefore exactly the requests whose DESTINATION repeats.
// A kNN or range search asks for the row of every object vertex it inspects,
// and on a static object set those are the same few vertices query after
// query — every row is a hit after its first touch. A /distance destination
// drawn uniformly from the map almost never repeats inside the table's
// lifetime, so distance queries gain nothing (and lose nothing but one
// arbitrary row per miss).
//
// Rows are stored only from complete, successful replies: a failed call's
// loose [0,+Inf) stand-in never enters the table, so an outage cannot be
// remembered past its end. The table lives in the router process; a restart
// starts cold and refills on demand. Serving a different image takes a new
// router (the metadata is read once at startup), hence a new, empty memo.

// memoRowsPerCell bounds one cell's table. A row for cell c is nb_c intervals
// of 16 bytes, and the rows' lengths sum to nb over the cells, so 3·nb/4 rows
// per cell cap all tables together at 3/4·nb·16·nb = 12·nb² bytes — the size
// of the boundary closure (8-byte distance + 4-byte hop per pair) the router
// already holds. The memo can at most double the router's routing state.
func memoRowsPerCell(nb int) int {
	return max(1, 3*nb/4)
}

type memoKey struct {
	v   graph.VertexID
	toV bool
}

// intervalMemo is one cell's bounded table of gateway-interval rows, safe
// for concurrent queries. Rows are immutable once stored and are handed out
// shared. One plain mutex per cell: it is held for a map lookup, against
// RPCs that take tens of microseconds at best.
type intervalMemo struct {
	mu   sync.Mutex
	rows map[memoKey][]core.Interval
	max  int
}

func (m *intervalMemo) get(k memoKey) ([]core.Interval, bool) {
	m.mu.Lock()
	row, ok := m.rows[k]
	m.mu.Unlock()
	return row, ok
}

// put stores row under k and reports whether the table grew. A full table
// first drops one arbitrary row (the first the map iteration yields): rows
// that are in use come back at the cost of one RPC, and no bookkeeping rides
// on the hit path.
func (m *intervalMemo) put(k memoKey, row []core.Interval) (grew bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.rows[k]; ok {
		return false // a concurrent miss stored the same bits first
	}
	if m.rows == nil {
		m.rows = make(map[memoKey][]core.Interval)
	}
	grew = true
	if len(m.rows) >= m.max {
		for victim := range m.rows {
			delete(m.rows, victim)
			grew = false
			break
		}
	}
	m.rows[k] = row
	return grew
}

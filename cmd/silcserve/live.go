package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"silc"
)

// errLiveDisabled is the 404 every live endpoint returns when the server
// runs without -live.
var errLiveDisabled = httpError{status: http.StatusNotFound, msg: "live object world disabled (start with -live)"}

// liveView pins the current live snapshot, or fails when -live is off.
func (s *server) liveView() (*silc.ObjectSet, error) {
	if s.live == nil {
		return nil, errLiveDisabled
	}
	return s.live.View(), nil
}

// querySet resolves the object set a query runs against: the static startup
// set, or — with live=1 — a pinned snapshot of the live world, exact for the
// version stamped into the result's stats.
func (s *server) querySet(liveRaw string) (*silc.ObjectSet, error) {
	switch liveRaw {
	case "", "0", "false":
		return s.objs, nil
	case "1", "true":
		return s.liveView()
	}
	return nil, badRequest("parameter live must be 0/1/true/false")
}

// objectRequest is the POST /objects body: insert ({"vertex":V} or
// {"x":X,"y":Y}, snapped to the nearest vertex) or move ({"id":I,"vertex":V}
// — an id makes it a move).
type objectRequest struct {
	ID     *int32   `json:"id"`
	Vertex *int64   `json:"vertex"`
	X      *float64 `json:"x"`
	Y      *float64 `json:"y"`
}

// handleObjects is the live-world CRUD endpoint: GET lists one consistent
// snapshot, POST inserts or moves, DELETE removes. Every mutation response
// carries the first store version reflecting it, so a client can correlate
// its write with the SnapshotVersion stamped on later query results.
func (s *server) handleObjects(w http.ResponseWriter, r *http.Request) {
	if s.live == nil {
		writeError(w, errLiveDisabled)
		return
	}
	switch r.Method {
	case http.MethodGet:
		objects, version := s.live.List()
		list := make([]map[string]any, len(objects))
		for i, o := range objects {
			list[i] = map[string]any{"id": o.ID, "vertex": int64(o.Vertex)}
		}
		writeJSON(w, map[string]any{"version": version, "count": len(list), "objects": list})
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, 4096)
		var req objectRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, badRequest("bad JSON body: %v", err))
			return
		}
		switch {
		case req.ID != nil: // move
			if req.Vertex == nil {
				writeError(w, badRequest(`move needs a "vertex"`))
				return
			}
			ver, err := s.live.Move(*req.ID, silc.VertexID(*req.Vertex))
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, map[string]any{"id": *req.ID, "vertex": *req.Vertex, "version": ver})
		case req.Vertex != nil: // insert at a vertex
			id, ver, err := s.live.Insert(silc.VertexID(*req.Vertex))
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, map[string]any{"id": id, "vertex": *req.Vertex, "version": ver})
		case req.X != nil && req.Y != nil: // insert at a point, snapped
			// Snapped here, once: the reply reports the vertex this write put
			// the object on, whatever a concurrent Move or Remove of the new
			// id does before the reply is written.
			v := s.eng.Network().NearestVertex(silc.Point{X: *req.X, Y: *req.Y})
			id, ver, err := s.live.Insert(v)
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, map[string]any{"id": id, "vertex": int64(v), "version": ver})
		default:
			writeError(w, badRequest(`body needs a "vertex", an "x"/"y" point, or an "id" plus "vertex" to move`))
		}
	case http.MethodDelete:
		raw := r.URL.Query().Get("id")
		id, err := strconv.Atoi(raw)
		if raw == "" || err != nil {
			writeError(w, badRequest("parameter id must be an object id"))
			return
		}
		ver, err := s.live.Remove(int32(id))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, map[string]any{"id": id, "version": ver})
	default:
		writeError(w, httpError{status: http.StatusMethodNotAllowed, msg: "use GET, POST, or DELETE"})
	}
}

// handleWatch streams continuous kNN over the live world: one NDJSON line
// per change to the top-k (the first line is the full initial result),
// flushed as each is produced. The stream runs until the client disconnects
// or the request deadline fires; a trailing line reports why it ended.
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if s.live == nil {
		writeError(w, errLiveDisabled)
		return
	}
	q, err := s.vertexParam(r, "q")
	if err != nil {
		writeError(w, err)
		return
	}
	k, err := s.kParam(r.URL.Query().Get("k"))
	if err != nil {
		writeError(w, err)
		return
	}
	maxDist, err := maxDistParam(r.URL.Query().Get("max_dist"))
	if err != nil {
		writeError(w, err)
		return
	}
	var opts []silc.Option
	if maxDist > 0 {
		opts = append(opts, silc.WithMaxDistance(maxDist))
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	events := 0
	for ev, err := range s.eng.Watch(r.Context(), s.live, q, k, opts...) {
		if err != nil {
			// Disconnect or deadline: the watch is already stopped; tell
			// anyone still listening why (a vanished client reads nothing).
			if !errors.Is(err, context.Canceled) {
				enc.Encode(map[string]any{"error": err.Error(), "events": events})
			}
			break
		}
		line := map[string]any{
			"version":   ev.Version,
			"neighbors": toNeighbors(ev.Neighbors),
		}
		if len(ev.Added) > 0 {
			line["added"] = toNeighbors(ev.Added)
		}
		if len(ev.Removed) > 0 {
			line["removed"] = ev.Removed
		}
		if len(ev.Changed) > 0 {
			line["changed"] = toNeighbors(ev.Changed)
		}
		if err := enc.Encode(line); err != nil {
			break // write failed (disconnect): stop streaming
		}
		if flusher != nil {
			flusher.Flush()
		}
		events++
	}
	s.queries.Add(int64(events))
}

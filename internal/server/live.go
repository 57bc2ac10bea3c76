package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"silc"
)

// errLiveDisabled is the 404 every live endpoint returns when the server
// has no live world.
var errLiveDisabled = httpError{status: http.StatusNotFound, msg: "live object world disabled (start with -live)"}

// objectRequest is the POST /objects body: insert ({"vertex":V} or
// {"x":X,"y":Y}, snapped to the nearest vertex) or move ({"id":I,"vertex":V}
// — an id makes it a move).
type objectRequest struct {
	ID     *int32         `json:"id"`
	Vertex *silc.VertexID `json:"vertex"`
	X      *float64       `json:"x"`
	Y      *float64       `json:"y"`
}

// handleObjects is the live-world CRUD endpoint: GET lists one consistent
// snapshot, POST inserts or moves, DELETE removes. Every mutation response
// carries the first store version reflecting it, so a client can correlate
// its write with the SnapshotVersion stamped on later query results.
func (s *Server) handleObjects(r *http.Request) (answer, error) {
	if s.Live == nil {
		return answer{}, errLiveDisabled
	}
	switch r.Method {
	case http.MethodGet:
		body := &objectsReply{}
		body.objects, body.version = s.Live.List()
		return answer{body: body}, nil
	case http.MethodPost:
		var req objectRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return answer{}, badRequest("bad JSON body: %v", err)
		}
		if req.ID == nil && req.Vertex == nil && req.X != nil && req.Y != nil {
			// Snapped here, once: the reply reports the vertex this write put
			// the object on, whatever a concurrent Move or Remove of the new
			// id does before the reply is written.
			v := s.Engine.Network().NearestVertex(silc.Point{X: *req.X, Y: *req.Y})
			req.Vertex = &v
		}
		if req.Vertex == nil {
			return answer{}, badRequest(`body needs a "vertex", an "x"/"y" point, or an "id" plus "vertex" to move`)
		}
		body := &putReply{vertex: *req.Vertex}
		var err error
		if req.ID != nil {
			body.id = *req.ID
			body.version, err = s.Live.Move(body.id, body.vertex)
		} else {
			body.id, body.version, err = s.Live.Insert(body.vertex)
		}
		if err != nil {
			return answer{}, err
		}
		return answer{body: body}, nil
	case http.MethodDelete:
		p := s.params(r)
		body := &deleteReply{id: int32(p.int("id", required))}
		if p.err != nil {
			return answer{}, p.err
		}
		var err error
		if body.version, err = s.Live.Remove(body.id); err != nil {
			return answer{}, err
		}
		return answer{body: body}, nil
	}
	return answer{}, httpError{status: http.StatusMethodNotAllowed, msg: "use GET, POST, or DELETE"}
}

// handleWatch streams continuous kNN over the live world: one NDJSON line
// per change to the top-k (the first line is the full initial result),
// flushed as each is produced. The stream runs until the client disconnects
// or the request deadline fires; a trailing line reports why it ended.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	p := s.params(r)
	q, req := p.vertex("q"), knnRequest{K: p.int("k", required), MaxDist: p.float("max_dist", 0)}
	opts, err := s.knnOptions(&req)
	err = cmp.Or(p.err, err)
	if s.Live == nil {
		err = errLiveDisabled
	}
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	events := 0
	for ev, err := range s.Engine.Watch(r.Context(), s.Live, q, req.K, opts...) {
		if err != nil {
			// Disconnect or deadline: the watch is already stopped; tell
			// anyone still listening why (a vanished client reads nothing).
			if !errors.Is(err, context.Canceled) {
				enc.Encode(map[string]any{"error": err.Error(), "events": events})
			}
			break
		}
		line := map[string]any{"version": ev.Version, "neighbors": toNeighbors(ev.Neighbors)}
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

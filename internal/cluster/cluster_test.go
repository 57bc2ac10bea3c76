package cluster

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestManifestParseAndValidate(t *testing.T) {
	good := []byte(`{
		"index": "net.sidx",
		"nodes": [
			{"name": "a", "addr": "http://x:1", "cells": [0, 1]},
			{"name": "b", "addr": "http://x:2", "cells": [1, 2]}
		]
	}`)
	m, err := ParseManifest(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(3); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(4); err == nil {
		t.Fatal("cell 3 has no owner; Validate(4) must fail")
	}
	if err := m.Validate(2); err == nil {
		t.Fatal("node b claims cell 2 of a 2-partition index; Validate(2) must fail")
	}
	owners := m.Owners(3)
	if len(owners[1]) != 2 || owners[1][0] != 0 || owners[1][1] != 1 {
		t.Fatalf("cell 1 owners = %v, want [0 1]", owners[1])
	}
	if m.Node("a") == nil || m.Node("zz") != nil {
		t.Fatal("Node lookup broken")
	}

	bad := []string{
		`{}`, // no nodes
		`{"nodes": [{"name": "", "addr": "http://x", "cells": [0]}]}`,                                                   // empty name
		`{"nodes": [{"name": "a", "addr": "", "cells": [0]}]}`,                                                          // empty addr
		`{"nodes": [{"name": "a", "addr": "http://x", "cells": []}]}`,                                                   // no cells
		`{"nodes": [{"name": "a", "addr": "http://x", "cells": [0, 0]}]}`,                                               // dup cell
		`{"nodes": [{"name": "a", "addr": "http://x", "cells": [-1]}]}`,                                                 // negative cell
		`{"nodes": [{"name": "a", "addr": "http://x", "cells": [0]}, {"name": "a", "addr": "http://y", "cells": [0]}]}`, // dup name
	}
	for _, src := range bad {
		if _, err := ParseManifest([]byte(src)); err == nil {
			t.Fatalf("ParseManifest accepted invalid manifest %s", src)
		}
	}
}

func TestBitsRoundTrip(t *testing.T) {
	vals := []float64{0, 1, -1, 0.1, 1e300, 5e-324, math.Inf(1), math.Inf(-1), math.MaxFloat64}
	for _, v := range vals {
		if got := FromBits(Bits(v)); got != v {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
	// NaN: bits survive even though NaN != NaN.
	nan := math.Float64frombits(0x7ff8000000000001)
	if Bits(FromBits(Bits(nan))) != Bits(nan) {
		t.Fatal("NaN bit pattern not preserved")
	}
	// And through a reply frame, the transport that matters.
	for _, v := range vals {
		var back IntervalResp
		if err := decodeFrame((&IntervalResp{Lo: Bits(v)}).appendFrame(nil), &back); err != nil {
			t.Fatal(err)
		}
		if FromBits(back.Lo) != v {
			t.Fatalf("frame round trip %v -> %v", v, FromBits(back.Lo))
		}
	}
}

// twoReplicaClient builds a client over two fake replicas for cell 0.
func twoReplicaClient(t *testing.T, addrA, addrB string, opt ClientOptions) *Client {
	t.Helper()
	m := &Manifest{Nodes: []NodeSpec{
		{Name: "a", Addr: addrA, Cells: []int{0}},
		{Name: "b", Addr: addrB, Cells: []int{0}},
	}}
	c, err := NewClient(m, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// okHandler answers any RPC like a single-form interval lookup whose lower
// bound is d.
func okHandler(d uint64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Write((&IntervalResp{Lo: d}).appendFrame(nil))
	}
}

func TestClientRetriesAcrossReplicas(t *testing.T) {
	var aCalls, bCalls atomic.Int64
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		aCalls.Add(1)
		http.Error(w, `{"error":"broken"}`, http.StatusInternalServerError)
	}))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bCalls.Add(1)
		okHandler(Bits(2.5))(w, r)
	}))
	defer b.Close()

	c := twoReplicaClient(t, a.URL, b.URL, ClientOptions{Timeout: 2 * time.Second})
	// Run several calls: whichever replica rotation starts on, every call
	// must succeed, and replica a must never surface its failure.
	for i := 0; i < 6; i++ {
		var resp IntervalResp
		if err := c.Call(context.Background(), 0, PathInterval, &IntervalReq{}, &resp); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if FromBits(resp.Lo) != 2.5 {
			t.Fatalf("call %d: got %v", i, FromBits(resp.Lo))
		}
	}
	if bCalls.Load() < 6 {
		t.Fatalf("replica b served %d of 6 calls", bCalls.Load())
	}
	if c.failures.Value() != 0 {
		t.Fatalf("client-visible failures: %d", c.failures.Value())
	}
	// a failed at least once, was marked down, and the cooldown kept later
	// rotations off it (6 calls in far less than the cooldown).
	if got := c.retries.Value(); got < 1 {
		t.Fatalf("no retries recorded (a calls: %d)", aCalls.Load())
	}
}

func TestClientAllReplicasFailing(t *testing.T) {
	bad := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"broken"}`, http.StatusInternalServerError)
	})
	a := httptest.NewServer(bad)
	defer a.Close()
	b := httptest.NewServer(bad)
	defer b.Close()
	c := twoReplicaClient(t, a.URL, b.URL, ClientOptions{Timeout: time.Second})
	var resp IntervalResp
	if err := c.Call(context.Background(), 0, PathInterval, &IntervalReq{}, &resp); err == nil {
		t.Fatal("call succeeded with every replica failing")
	}
	if c.failures.Value() != 1 {
		t.Fatalf("failures counter = %d, want 1", c.failures.Value())
	}
}

func TestClientProbeReadmitsNode(t *testing.T) {
	var ready atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			if ready.Load() {
				w.Write([]byte("ready\n"))
			} else {
				http.Error(w, "down", http.StatusServiceUnavailable)
			}
			return
		}
		okHandler(Bits(3.0))(w, r)
	}))
	defer srv.Close()
	c := twoReplicaClient(t, srv.URL, srv.URL, ClientOptions{
		Timeout:      time.Second,
		FailCooldown: time.Hour, // only Probe can re-admit
	})
	c.markDown(0)
	ready.Store(true)
	c.Probe(context.Background())
	if c.nodes[0].downUntil.Load() != 0 {
		t.Fatal("Probe did not re-admit a ready node")
	}
	c.markDown(0)
	ready.Store(false)
	c.Probe(context.Background())
	if c.nodes[0].downUntil.Load() == 0 {
		t.Fatal("Probe re-admitted a node that is not ready")
	}
}

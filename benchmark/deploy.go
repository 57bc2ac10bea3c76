package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"silc/internal/graph"
)

// env is where one benchmark process works: the checkout it builds from, the
// tools it built, and a scratch directory removed on exit.
type env struct {
	root string // checkout root (the parent of benchmark/)
	bin  string // built tools
	dir  string // scratch for inputs and index files
	side int    // the network is a side×side road lattice
}

func (e *env) tool(name string) string { return filepath.Join(e.bin, name) }

// inputs is everything a run derives from its seed before any server
// starts. The servers receive files and requests, never the seed.
type inputs struct {
	netPath string
	objPath string
	g       *graph.Network
	objects []int32 // object i sits on vertex objects[i]
	ops     []op
	radius  float64 // range radius: the median distance to the 10th object
	oracle  *oracle
}

// networkSeed is the one road map every run uses. The seed of a run draws the
// objects and the traffic, not the map: a map per seed moved every latency by
// up to 17% between seeds on a quiet machine, three times what the machine
// itself does between two runs of one seed, and a regression bound would have
// had to cover both.
const networkSeed = 1

// makeInputs generates the network with netgen, and from seed, in-process,
// the objects and the op sequence.
func (e *env) makeInputs(w *workload, seed int64) (*inputs, error) {
	in := &inputs{
		netPath: filepath.Join(e.dir, "net.txt"),
		objPath: filepath.Join(e.dir, "obj.txt"),
	}
	side := strconv.Itoa(e.side)
	if err := runTool("netgen", e.tool("netgen"), "-kind", "road", "-rows", side, "-cols", side,
		"-seed", strconv.Itoa(networkSeed), "-o", in.netPath); err != nil {
		return nil, err
	}
	f, err := os.Open(in.netPath)
	if err != nil {
		return nil, err
	}
	in.g, err = graph.Read(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", in.netPath, err)
	}
	n := in.g.NumVertices()
	in.objects = genObjects(seed, w.objectFraction, n)
	var sb strings.Builder
	for _, v := range in.objects {
		fmt.Fprintln(&sb, v)
	}
	if err := os.WriteFile(in.objPath, []byte(sb.String()), 0o644); err != nil {
		return nil, err
	}
	in.ops = genOps(w, seed, seqLen, n)
	in.oracle = newOracle(in.g)
	sampleQueries := make([]uint32, 101)
	for i := range sampleQueries {
		sampleQueries[i] = uint32(i * n / len(sampleQueries))
	}
	in.radius = in.oracle.medianKthDistance(newObjects(in.objects, n), sampleQueries, knnK)
	return in, nil
}

// deployment is one running instance of a workload's servers.
type deployment struct {
	front *proc   // the server the client talks to
	procs []*proc // every server, the front one included
	image string  // index file; empty when the index is built in RAM
}

func (d *deployment) stop() {
	for _, p := range d.procs {
		p.stop()
	}
}

// alive fails once any server has died, with that server's last output.
func (d *deployment) alive() error {
	for _, p := range d.procs {
		if p.dead() {
			return p.diedError()
		}
	}
	return nil
}

// cpuSeconds sums user+system CPU over every server process.
func (d *deployment) cpuSeconds() (float64, error) {
	total := 0.0
	for _, p := range d.procs {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// deploy builds the workload's index artifacts into dir and starts its
// servers with default flags apart from the ones the workload is about.
func (e *env) deploy(ctx context.Context, w *workload, in *inputs, dir string) (_ *deployment, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	serve := func(args ...string) {
		if d.front, err = startServer(ctx, "silcserve", e.tool("silcserve"), args...); err == nil {
			d.procs = append(d.procs, d.front)
		}
	}
	pool := strconv.FormatFloat(w.pool, 'g', -1, 64)
	switch w.name {
	case "warm_ram":
		serve("-network", in.netPath, "-objects", in.objPath)
	case "live_churn":
		serve("-network", in.netPath, "-objects", in.objPath, "-live")
	case "paged_smallpool":
		d.image = filepath.Join(dir, "mono.pg2")
		if err = runTool("silcbuild", e.tool("silcbuild"), "-net", in.netPath,
			"-format=paged", "-compress=delta", "-o", d.image); err != nil {
			return nil, err
		}
		serve("-index", d.image, "-cache-fraction", pool, "-objects", in.objPath)
	case "cluster_router":
		d.image = filepath.Join(dir, "cells.spg2")
		if err = runTool("silcbuild", e.tool("silcbuild"), "-net", in.netPath, "-partitions", "4",
			"-format=paged", "-compress=delta", "-o", d.image); err != nil {
			return nil, err
		}
		if err = e.startNodes(ctx, d, dir, pool); err == nil {
			serve("-cluster", "router", "-manifest", filepath.Join(dir, "manifest.json"), "-objects", in.objPath)
		}
	default:
		err = fmt.Errorf("no deployment for workload %q", w.name)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// startNodes writes the manifest and starts the two nodes, owning cells
// {0,1} and {2,3}, and waits for both. The router comes after: one started
// first would poll for its nodes on a 500 ms timer and put that timer into
// setup_s.
func (e *env) startNodes(ctx context.Context, d *deployment, dir, pool string) error {
	type nodeSpec struct {
		Name  string `json:"name"`
		Addr  string `json:"addr"`
		Cells []int  `json:"cells"`
	}
	nodes := []nodeSpec{{Name: "node-a", Cells: []int{0, 1}}, {Name: "node-b", Cells: []int{2, 3}}}
	for i := range nodes {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		nodes[i].Addr = "http://" + addr
	}
	manifest := filepath.Join(dir, "manifest.json")
	data, _ := json.Marshal(map[string]any{"index": d.image, "nodes": nodes})
	if err := os.WriteFile(manifest, data, 0o644); err != nil {
		return err
	}
	for _, n := range nodes {
		p, err := start(n.Name, e.tool("silcserve"), "-cluster", "node", "-manifest", manifest,
			"-node-name", n.Name, "-cache-fraction", pool, "-addr", strings.TrimPrefix(n.Addr, "http://"))
		if err != nil {
			return err
		}
		p.url = n.Addr
		d.procs = append(d.procs, p)
	}
	for _, p := range d.procs {
		if err := p.waitReady(ctx); err != nil {
			return err
		}
	}
	return nil
}

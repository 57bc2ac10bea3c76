// Command silcserve serves network-distance queries over HTTP/JSON (the
// endpoints are package internal/server's) in one of three roles:
//
//   - standalone: open a paged -index, or build one in RAM from a -network
//     file or a generated road map (sharded with -partitions N > 1);
//   - -cluster node: serve the cell RPC surface of the cells the -manifest
//     assigns -node-name;
//   - -cluster router: serve the query API from the index metadata alone,
//     fanning per-cell work out to the nodes.
//
// On SIGTERM/SIGINT every role fails /readyz, waits -drain-grace, then
// closes the listener and finishes the in-flight requests.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"silc"
	"silc/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		networkPath = flag.String("network", "", "network file (silcbuild text format); empty = generate")
		indexPath   = flag.String("index", "", "prebuilt paged index image from silcbuild -o (embeds the network; a -network given too is cross-checked)")
		rows        = flag.Int("rows", 64, "generated network rows (when no -network)")
		cols        = flag.Int("cols", 64, "generated network cols")
		seed        = flag.Int64("seed", 1, "generated network seed")
		cacheFrac   = flag.Float64("cache-fraction", 0.05, "buffer-pool size of a paged -index, as a fraction of its block pages")
		objectsPath = flag.String("objects", "", "object vertices file, one id per line; empty = random sample")
		objectFrac  = flag.Float64("object-fraction", 0.05, "fraction of vertices carrying an object (when no -objects)")
		objectSeed  = flag.Int64("object-seed", 2008, "object sample seed")
		liveOn      = flag.Bool("live", false, "serve a mutable live object world (/objects, /watch, live=1 queries), seeded from the startup objects")
		liveTTL     = flag.Duration("live-ttl", 0, "expire live objects not inserted/moved within this duration (0 = never)")
		partitions  = flag.Int("partitions", 1, "spatial partitions (>1 builds/serves the sharded index)")
		maxK        = flag.Int("max-k", 1000, "largest k a request may ask for")
		maxBatch    = flag.Int("max-batch", 10000, "largest batch request size")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request deadline cancelling in-flight queries (0 = none)")
		pprofOn     = flag.Bool("pprof", false, "serve Go runtime profiles under /debug/pprof/")
		slowlogPath = flag.String("slowlog", "", "append slow-query NDJSON entries to this file (empty = disabled)")
		slowThresh  = flag.Duration("slow-threshold", 100*time.Millisecond, "minimum request latency for a -slowlog entry")

		clusterMode   = flag.String("cluster", "", `cluster role: "node" (serve owned cells' RPC surface) or "router" (stateless query router); empty = standalone`)
		manifestPath  = flag.String("manifest", "", "cluster manifest JSON file (required with -cluster)")
		nodeName      = flag.String("node-name", "", "this node's name in the manifest (required with -cluster node)")
		drainGrace    = flag.Duration("drain-grace", 5*time.Second, "on SIGTERM, time between failing /readyz and closing the listener")
		probeInterval = flag.Duration("probe-interval", time.Second, "router: how often to re-probe failed replicas on /readyz")
		readyWait     = flag.Duration("ready-wait", 30*time.Second, "router: how long to wait at startup for every manifest node's /readyz")
	)
	flag.Parse()

	cfg := server.Config{MaxK: *maxK, MaxBatch: *maxBatch, Timeout: *reqTimeout, Pprof: *pprofOn}
	var err error
	switch *clusterMode {
	case "node": // only the owned cells' pages of the shared index ever materialize
		m, index, err := loadManifest(*manifestPath, *indexPath)
		check(err)
		if *nodeName == "" {
			log.Fatal("silcserve: -cluster node requires -node-name")
		}
		eng, err := silc.OpenEngine(index, nil, silc.BuildOptions{CacheFraction: *cacheFrac})
		check(err)
		cfg.Node, err = silc.NewClusterNode(eng, m, *nodeName)
		check(err)
		defer cfg.Node.Close()
		log.Printf("cluster node %s serving cells %v of %s", *nodeName, m.Node(*nodeName).Cells, index)
	case "router":
		router, err := openRouter(*manifestPath, *indexPath, *readyWait)
		check(err)
		cfg.Engine, cfg.Aux = router.Engine(), router.Registry() // Aux adds the silc_cluster_* families to /metrics
		probeCtx, stopProbing := context.WithCancel(context.Background())
		defer stopProbing()
		router.StartProbing(probeCtx, *probeInterval)
	case "":
		cfg.Engine, err = loadOrBuild(*networkPath, *indexPath, *rows, *cols, *seed, silc.BuildOptions{Partitions: *partitions, CacheFraction: *cacheFrac})
		check(err)
	default:
		log.Fatalf("silcserve: unknown -cluster %q (node, router)", *clusterMode)
	}

	if cfg.Engine != nil {
		net := cfg.Engine.Network()
		objVertices, err := loadObjects(net, *objectsPath, *objectFrac, *objectSeed)
		check(err)
		cfg.Objects, err = silc.NewObjectSet(net, objVertices)
		check(err)
		log.Printf("serving %d vertices, %d edges, %d objects", net.NumVertices(), net.NumEdges(), len(objVertices))
		// Tracing trades two clock reads per query for phase-attributed
		// metrics and slow-log entries.
		cfg.Engine.SetTracing(true)
		if *liveOn {
			cfg.Live, err = silc.NewLiveObjects(net, silc.LiveObjectsOptions{TTL: *liveTTL})
			check(err)
			defer cfg.Live.Close()
			for _, v := range objVertices {
				cfg.Live.Insert(v)
			}
			log.Printf("live object world: %d objects seeded (ttl %v)", cfg.Live.Len(), *liveTTL)
		}
		if *slowlogPath != "" {
			cfg.SlowLog, err = server.OpenSlowLog(*slowlogPath, *slowThresh)
			check(err)
			defer cfg.SlowLog.Close()
			log.Printf("slow-query log: %s (threshold %v)", *slowlogPath, *slowThresh)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	check(server.New(cfg).Run(ctx, *addr, *drainGrace))
}

func check(err error) {
	if err != nil {
		log.Fatalf("silcserve: %v", err)
	}
}

// openRouter is the -cluster router setup: read the index metadata (no cell
// pages), wire the RPC client over the manifest, and wait for every node's
// /readyz so the router never serves ahead of its backends.
func openRouter(manifestPath, indexPath string, readyWait time.Duration) (*silc.ClusterRouter, error) {
	m, indexPath, err := loadManifest(manifestPath, indexPath)
	if err != nil {
		return nil, err
	}
	router, err := silc.OpenClusterRouter(indexPath, m, silc.ClusterRouterOptions{})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(readyWait)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err = router.Ready(ctx)
		cancel()
		if err == nil {
			return router, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster not ready after %v: %w", readyWait, err)
		}
		log.Printf("waiting for cluster: %v", err)
		time.Sleep(500 * time.Millisecond)
	}
}

// loadManifest reads the cluster manifest and resolves the index path:
// -index overrides the manifest's own index entry.
func loadManifest(manifestPath, indexPath string) (*silc.ClusterManifest, string, error) {
	if manifestPath == "" {
		return nil, "", errors.New("-cluster requires -manifest")
	}
	m, err := silc.LoadClusterManifest(manifestPath)
	if err != nil {
		return nil, "", err
	}
	if indexPath = cmp.Or(indexPath, m.Index); indexPath == "" {
		return nil, "", errors.New("no index: pass -index or set the manifest's \"index\"")
	}
	return m, indexPath, nil
}

// loadOrBuild opens the paged -index (its format is sniffed and its network
// embedded; a -network given too is cross-checked) or builds one in RAM.
func loadOrBuild(networkPath, indexPath string, rows, cols int, seed int64, opts silc.BuildOptions) (*silc.Engine, error) {
	var net *silc.Network
	var err error
	if networkPath != "" {
		f, err := os.Open(networkPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if net, err = silc.LoadNetwork(f); err != nil {
			return nil, fmt.Errorf("load network: %w", err)
		}
	}
	if indexPath != "" {
		eng, err := silc.OpenEngine(indexPath, net, opts)
		if err != nil {
			return nil, fmt.Errorf("load index: %w", err)
		}
		return eng, nil
	}
	if net == nil {
		if net, err = silc.GenerateRoadNetwork(silc.RoadNetworkOptions{Rows: rows, Cols: cols, Seed: seed}); err != nil {
			return nil, err
		}
	}
	if opts.Partitions > 1 {
		log.Printf("building sharded index over %d vertices (%d partitions)...", net.NumVertices(), opts.Partitions)
	} else {
		log.Printf("building index over %d vertices...", net.NumVertices())
	}
	return silc.Build(net, opts)
}

// loadObjects reads the object vertices from path, one id per line, or
// samples a fraction of the vertices.
func loadObjects(net *silc.Network, path string, fraction float64, seed int64) ([]silc.VertexID, error) {
	var vs []silc.VertexID
	if path == "" {
		n := net.NumVertices()
		m := min(max(int(math.Round(fraction*float64(n))), 1), n)
		for _, v := range rand.New(rand.NewSource(seed)).Perm(n)[:m] {
			vs = append(vs, silc.VertexID(v))
		}
		return vs, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Fields(string(data)) {
		id, err := strconv.Atoi(line)
		if err != nil || id < 0 || id >= net.NumVertices() {
			return nil, fmt.Errorf("bad object vertex %q", line)
		}
		vs = append(vs, silc.VertexID(id))
	}
	return vs, nil
}

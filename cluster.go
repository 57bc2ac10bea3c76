package silc

import (
	"context"
	"io"
	"net/http"
	"os"
	"time"

	"silc/internal/cluster"
	"silc/internal/obs"
	"silc/internal/partition"
)

// ClusterManifest is the static cluster topology — which node serves which
// cells, and where the shared sharded paged index file lives. See
// cluster.Manifest for the JSON format.
type ClusterManifest = cluster.Manifest

// ClusterNodeSpec is one node's manifest entry: name, base URL, owned cells.
type ClusterNodeSpec = cluster.NodeSpec

// LoadClusterManifest reads and validates a manifest file (structural
// checks only; cell coverage is validated against the index when a node or
// router opens it).
func LoadClusterManifest(path string) (*ClusterManifest, error) {
	return cluster.LoadManifest(path)
}

// ClusterNode is one serving node of a distributed deployment: it owns the
// manifest-assigned cells of a sharded index and answers the internal RPC
// surface the router fans out to. The node opens the full paged file, but
// demand paging means only its own cells' pages ever materialize.
type ClusterNode struct {
	eng  *Engine
	node *cluster.Node
}

// NewClusterNode binds the node named name in the manifest to an engine
// over the manifest's index (typically OpenEngine over its file). Any image
// serves: a monolithic one is one cell, which one node serves.
func NewClusterNode(eng *Engine, m *ClusterManifest, name string) (*ClusterNode, error) {
	n, err := cluster.NewNode(name, m, eng.sx)
	if err != nil {
		return nil, err
	}
	return &ClusterNode{eng: eng, node: n}, nil
}

// Name returns the node's manifest name.
func (n *ClusterNode) Name() string { return n.node.Name() }

// Handler returns the node's HTTP surface: the /rpc/v2/* endpoints plus
// /healthz, /readyz and /metrics.
func (n *ClusterNode) Handler() http.Handler { return n.node.Handler() }

// StartDrain flips /readyz to 503 so routers and load balancers stop
// sending new work; in-flight RPCs keep being served.
func (n *ClusterNode) StartDrain() { n.node.StartDrain() }

// WriteMetrics writes the Prometheus exposition: the index's silc_*
// families (buffer pool, stores) followed by the node's silcnode_* RPC
// metrics.
func (n *ClusterNode) WriteMetrics(w io.Writer) error {
	if err := n.eng.WriteMetrics(w); err != nil {
		return err
	}
	return n.node.Registry().WritePrometheus(w)
}

// Close releases the index file.
func (n *ClusterNode) Close() error { return n.eng.Close() }

// ClusterRouterOptions tunes the router's RPC client.
type ClusterRouterOptions struct {
	// Timeout bounds each RPC attempt (default 5s).
	Timeout time.Duration
	// FailCooldown deprioritizes a failed replica for this long (default 2s).
	FailCooldown time.Duration
	// HTTPClient overrides the transport (tests inject httptest clients).
	HTTPClient *http.Client
}

// ClusterRouter is the stateless query half of a distributed deployment:
// it holds only the index's metadata — the global network, the cell
// labels, and the boundary closure (the routing table) — and fans each
// query's per-cell work out to the owning nodes, merging the replies with
// exactly the in-process engine's arithmetic. Distances cross the wire as
// IEEE 754 bits, so every answer is bit-identical to the monolithic
// engine's. The router's Engine answers the full query surface (kNN,
// range, browse, distance, path) and is safe for unlimited concurrent use.
type ClusterRouter struct {
	eng    *Engine
	client *cluster.Client
}

// OpenClusterRouter reads the metadata half of the sharded paged index at
// indexPath — no cell image pages are touched, ever — and wires a router
// over the manifest's nodes.
func OpenClusterRouter(indexPath string, m *ClusterManifest, opt ClusterRouterOptions) (*ClusterRouter, error) {
	f, err := os.Open(indexPath)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the metadata is fully decoded; the file is not needed after
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	meta, err := partition.OpenPagedMeta(f, info.Size())
	if err != nil {
		return nil, err
	}
	client, err := cluster.NewClient(m, meta.NumPartitions(), cluster.ClientOptions{
		Timeout:      opt.Timeout,
		FailCooldown: opt.FailCooldown,
		HTTPClient:   opt.HTTPClient,
	})
	if err != nil {
		return nil, err
	}
	sx, err := partition.NewRemote(meta, cluster.RemoteCells(client, meta))
	if err != nil {
		return nil, err
	}
	return &ClusterRouter{
		eng:    newEngine(&Network{g: meta.Network()}, sx, ""),
		client: client,
	}, nil
}

// Engine returns the router's unified query handle — the same API an
// in-process index serves, now backed by the cluster.
func (r *ClusterRouter) Engine() *Engine { return r.eng }

// Ready verifies every manifest node answers /readyz, so the router can
// gate its own readiness on the cluster being dialable.
func (r *ClusterRouter) Ready(ctx context.Context) error { return r.client.Ready(ctx) }

// StartProbing re-admits failed replicas in the background: every interval,
// nodes marked down are probed on /readyz and restored on 200. Runs until
// ctx is cancelled.
func (r *ClusterRouter) StartProbing(ctx context.Context, interval time.Duration) {
	r.client.StartProbing(ctx, interval)
}

// WriteMetrics writes the Prometheus exposition: the engine's silc_*
// families followed by the RPC client's silc_cluster_* metrics.
func (r *ClusterRouter) WriteMetrics(w io.Writer) error {
	if err := r.eng.WriteMetrics(w); err != nil {
		return err
	}
	return r.client.Registry().WritePrometheus(w)
}

// Registry exposes the RPC client's silc_cluster_* metrics on their own, for
// servers that already emit the engine families elsewhere.
func (r *ClusterRouter) Registry() *obs.Registry { return r.client.Registry() }

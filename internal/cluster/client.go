package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"silc/internal/obs"
)

// ClientOptions tunes the router-side RPC client.
type ClientOptions struct {
	// Timeout bounds each individual attempt (default 5s). The caller's
	// context still caps the whole call.
	Timeout time.Duration
	// FailCooldown is how long a replica stays deprioritized after a failed
	// attempt (default 2s). Probing (Client.Probe) can clear it earlier.
	FailCooldown time.Duration
	// HTTPClient overrides the transport (tests inject httptest clients).
	HTTPClient *http.Client
}

// Client fans per-cell RPCs out to the owning nodes with replica load
// balancing, per-attempt timeouts and failover retries. It is the transport
// half of the router: one Client serves any number of concurrent queries.
type Client struct {
	m      *Manifest
	p      int
	owners [][]int // per cell: manifest node indices serving it
	nodes  []nodeState
	httpc  *http.Client
	opt    ClientOptions

	reg       *obs.Registry
	rpcs      map[string]*clientEndpointMetrics
	retries   *obs.Counter
	failures  *obs.Counter
	cellCalls []*obs.Counter
	rr        []atomic.Uint32
}

// idleConnsPerNode is how many idle keep-alive connections the client keeps
// to each node. One query runs its RPCs one after another, so the router
// needs one connection per node per query in flight; net/http's default of
// two makes every burst wider than that — a batch /knn's workers, a few
// concurrent clients — dial afresh and drop the extra connections afterwards.
// 64 covers the widest fan-out silcserve produces on its own (a batch runs
// GOMAXPROCS workers) with room for many concurrent clients on top.
const idleConnsPerNode = 64

// newTransport is the client's own connection pool, sized for a router
// rather than for a browser.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // no global cap: the per-node cap is the bound
	t.MaxIdleConnsPerHost = idleConnsPerNode
	return t
}

type clientEndpointMetrics struct {
	calls     *obs.Counter
	errors    *obs.Counter
	latency   *obs.Histogram
	reqBytes  *obs.Counter
	respBytes *obs.Counter
}

type nodeState struct {
	addr string
	name string
	// downUntil is the unix-nano timestamp until which the replica is
	// deprioritized after a failure; 0 = healthy.
	downUntil atomic.Int64
}

// NewClient builds a client over the manifest for a p-partition index.
func NewClient(m *Manifest, p int, opt ClientOptions) (*Client, error) {
	if err := m.Validate(p); err != nil {
		return nil, err
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 5 * time.Second
	}
	if opt.FailCooldown <= 0 {
		opt.FailCooldown = 2 * time.Second
	}
	httpc := opt.HTTPClient
	if httpc == nil {
		httpc = &http.Client{Transport: newTransport()}
	}
	c := &Client{
		m:      m,
		p:      p,
		owners: m.Owners(p),
		nodes:  make([]nodeState, len(m.Nodes)),
		httpc:  httpc,
		opt:    opt,
		reg:    obs.NewRegistry(),
		rr:     make([]atomic.Uint32, p),
	}
	for i, n := range m.Nodes {
		c.nodes[i].addr = n.Addr
		c.nodes[i].name = n.Name
	}
	c.rpcs = make(map[string]*clientEndpointMetrics, len(endpoints))
	for _, ep := range endpoints {
		label := `endpoint="` + ep + `"`
		c.rpcs[ep] = &clientEndpointMetrics{
			calls: c.reg.Counter("silc_cluster_rpcs_total", label,
				"Cluster RPC calls issued per endpoint."),
			errors: c.reg.Counter("silc_cluster_rpc_errors_total", label,
				"Failed cluster RPC attempts per endpoint (each retried attempt counts)."),
			latency: c.reg.Histogram("silc_cluster_rpc_seconds", label,
				"Cluster RPC call latency per endpoint, across all attempts of the call."),
			reqBytes: c.reg.Counter("silc_cluster_rpc_bytes_total", label+`,dir="req"`,
				"Cluster RPC frame bytes per endpoint and direction: request bodies sent and reply bodies read, every attempt counted."),
			respBytes: c.reg.Counter("silc_cluster_rpc_bytes_total", label+`,dir="resp"`,
				"Cluster RPC frame bytes per endpoint and direction: request bodies sent and reply bodies read, every attempt counted."),
		}
	}
	c.retries = c.reg.Counter("silc_cluster_retries_total", "",
		"Attempts launched because a previous replica attempt failed.")
	c.failures = c.reg.Counter("silc_cluster_call_failures_total", "",
		"Cluster RPC calls that exhausted every replica (client-visible failures).")
	c.cellCalls = make([]*obs.Counter, p)
	for cell := 0; cell < p; cell++ {
		c.cellCalls[cell] = c.reg.Counter("silc_cluster_cell_rpcs_total",
			`cell="`+strconv.Itoa(cell)+`"`,
			"Cluster RPC calls issued per cell — the router-side load signal: a hot cell is one worth another replica.")
	}
	return c, nil
}

// Registry exposes the client's silc_cluster_* metrics.
func (c *Client) Registry() *obs.Registry { return c.reg }

// NumPartitions returns the partition count the client routes for.
func (c *Client) NumPartitions() int { return c.p }

// readyz reports whether node n answers /readyz with 200.
func (c *Client) readyz(ctx context.Context, n *nodeState) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.addr+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: node %s: %w", n.name, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: node %s: readyz status %d", n.name, resp.StatusCode)
	}
	return nil
}

// Probe checks /readyz on every node currently marked down and re-admits
// the ones that answer 200 — so a replica that restarted rejoins rotation
// before its cooldown expires. Call it periodically from a background
// goroutine; it bounds itself by ctx.
func (c *Client) Probe(ctx context.Context) {
	now := time.Now().UnixNano()
	for i := range c.nodes {
		n := &c.nodes[i]
		if n.downUntil.Load() == 0 || n.downUntil.Load() < now {
			continue
		}
		if c.readyz(ctx, n) == nil {
			n.downUntil.Store(0)
		}
	}
}

// StartProbing runs Probe every interval until ctx is cancelled.
func (c *Client) StartProbing(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.Probe(ctx)
			}
		}
	}()
}

// Ready verifies every node in the manifest answers /readyz, so a router
// can gate its own readiness on the cluster being dialable.
func (c *Client) Ready(ctx context.Context) error {
	for i := range c.nodes {
		if err := c.readyz(ctx, &c.nodes[i]); err != nil {
			return err
		}
	}
	return nil
}

// Call issues one RPC for cell against its replica set: replicas are tried
// one after another on the caller's goroutine, in round-robin rotation
// (healthy ones first), each under the per-attempt timeout; a failed attempt
// fails over to the next replica at once, and the first successful response
// wins. Each replica is attempted at most once per call; the call fails only
// when every replica has failed (or ctx expired) — a single replica failure
// is invisible to the query. Attempts never overlap: the per-attempt timeout
// and failover bound what a dead or hung replica can cost, and the common
// case — first replica answers — costs no goroutine, channel or extra context.
// The reply decodes into resp, reusing its columns.
func (c *Client) Call(ctx context.Context, cell int32, endpoint string, req, resp Message) error {
	em := c.rpcs[endpoint]
	if em == nil {
		return fmt.Errorf("cluster: unknown endpoint %s", endpoint)
	}
	em.calls.Inc()
	c.cellCalls[cell].Inc()
	start := time.Now()
	defer func() { em.latency.Observe(time.Since(start)) }()

	// The request frame is encoded once and replayed per attempt. It goes
	// back to the pool only when the first attempt succeeded: the transport
	// may still be sending it for an attempt that failed early.
	body := getFrameBuf()
	body.b = req.appendFrame(body.b[:0])
	var lastErr error
	for i, ni := range c.replicaOrder(cell) {
		if i > 0 {
			c.retries.Inc()
		}
		err := c.attempt(ctx, ni, endpoint, em, body.b, resp)
		if err == nil {
			if i == 0 {
				putFrameBuf(body)
			}
			return nil
		}
		em.errors.Inc()
		if ctx.Err() != nil {
			// The caller gave up; that says nothing about the replica.
			c.failures.Inc()
			return ctx.Err()
		}
		lastErr = err
		c.markDown(ni)
	}
	c.failures.Inc()
	return fmt.Errorf("cluster: cell %d: every replica failed: %w", cell, lastErr)
}

// maxReplyBytes bounds a reply body the client reads.
const maxReplyBytes = 64 << 20

// attempt performs one HTTP POST against one replica under the per-attempt
// timeout and decodes a 200 reply into resp.
func (c *Client) attempt(ctx context.Context, ni int, endpoint string, em *clientEndpointMetrics, body []byte, resp Message) error {
	actx, cancel := context.WithTimeout(ctx, c.opt.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost,
		c.nodes[ni].addr+endpoint, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", frameContentType)
	em.reqBytes.Add(int64(len(body)))
	hr, err := c.httpc.Do(req)
	if err != nil {
		return fmt.Errorf("node %s: %w", c.nodes[ni].name, err)
	}
	defer hr.Body.Close()
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	buf.b, err = readBody(io.LimitReader(hr.Body, maxReplyBytes), buf.b, hr.ContentLength)
	em.respBytes.Add(int64(len(buf.b)))
	if err != nil {
		return fmt.Errorf("node %s: reading response: %w", c.nodes[ni].name, err)
	}
	if hr.StatusCode != http.StatusOK {
		var er ErrorResp
		msg := ""
		if json.Unmarshal(buf.b, &er) == nil {
			msg = ": " + er.Error
		}
		return fmt.Errorf("node %s: %s status %d%s", c.nodes[ni].name, endpoint, hr.StatusCode, msg)
	}
	if err := decodeFrame(buf.b, resp); err != nil {
		return fmt.Errorf("node %s: %s reply: %w", c.nodes[ni].name, endpoint, err)
	}
	return nil
}

// replicaOrder returns cell's replicas in attempt order: round-robin
// rotated for load balancing, with currently-down replicas moved to the
// back (they remain last-resort candidates — a cell whose every replica is
// cooling down still gets attempts rather than an instant failure).
func (c *Client) replicaOrder(cell int32) []int {
	owners := c.owners[cell]
	start := int(c.rr[cell].Add(1)-1) % len(owners)
	order := make([]int, 0, len(owners))
	now := time.Now().UnixNano()
	var down []int
	for i := 0; i < len(owners); i++ {
		ni := owners[(start+i)%len(owners)]
		if du := c.nodes[ni].downUntil.Load(); du != 0 && du > now {
			down = append(down, ni)
			continue
		}
		order = append(order, ni)
	}
	return append(order, down...)
}

func (c *Client) markDown(ni int) {
	c.nodes[ni].downUntil.Store(time.Now().Add(c.opt.FailCooldown).UnixNano())
}

package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pphcr/internal/httpapi"
)

// Router is the cluster front door: it owns the consistent-hash
// partition table, forwards each request to the node owning its user,
// health-checks every leader, and promotes a partition's standby when
// its leader dies. Writes are acknowledged through the semi-sync
// barrier: the response is held until the partition's follower has
// applied at least the write's WAL sequence — which is exactly what
// makes "the client saw 2xx" mean "the write survives losing the
// leader".
type Router struct {
	// HealthInterval / HealthTimeout / FailThreshold tune the detector:
	// a leader is declared dead after FailThreshold consecutive probe
	// failures. Defaults: 100ms / 1s / 3.
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	FailThreshold  int
	// AckTimeout bounds the semi-sync barrier: a write whose follower
	// ack does not arrive in time returns 504 — NOT acknowledged; it may
	// or may not survive, and an idempotent retry is the client's move.
	// Default 5s.
	AckTimeout time.Duration
	// ProxyTimeout bounds one forwarded request. Default 30s.
	ProxyTimeout time.Duration

	Logger *slog.Logger

	hc *http.Client

	mu    sync.RWMutex
	topo  *Topology
	ring  *Ring
	nodes map[string]*nodeState

	failovers atomic.Int64
	// lastFailoverMs is the detection→promoted duration of the most
	// recent failover, the failover_ms benchmark highlight.
	lastFailoverMs atomic.Int64
}

// nodeState is one partition's runtime state.
type nodeState struct {
	node Node

	mu       sync.Mutex
	fails    int
	promoted bool // standby has taken over
	healthy  bool
	// firstFail marks when the current probe-failure streak began: the
	// start of the client-visible outage the failover_ms highlight
	// measures.
	firstFail time.Time
}

// activeURL returns where this partition's traffic goes and whether
// that target is a (still-follower) replica.
func (n *nodeState) activeURL() (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promoted {
		return n.node.Standby, false
	}
	if !n.healthy && n.node.Standby != "" {
		// Leader presumed dead, promotion not yet complete: reads are
		// served stale by the warm standby, flagged as replica.
		return n.node.Standby, true
	}
	return n.node.URL, false
}

// NewRouter builds a router over a validated topology.
func NewRouter(t *Topology) *Router {
	r := &Router{
		HealthInterval: 100 * time.Millisecond,
		HealthTimeout:  time.Second,
		FailThreshold:  3,
		AckTimeout:     5 * time.Second,
		ProxyTimeout:   30 * time.Second,
		Logger:         slog.Default(),
		hc:             &http.Client{},
	}
	r.install(t)
	return r
}

// install swaps in a topology (initial load or a reload).
func (r *Router) install(t *Topology) {
	ring := NewRing(t)
	nodes := make(map[string]*nodeState, len(t.Nodes))
	r.mu.Lock()
	for _, n := range t.Nodes {
		if old, ok := r.nodes[n.ID]; ok && old.node == n {
			nodes[n.ID] = old // keep health/failover state across reloads
			continue
		}
		nodes[n.ID] = &nodeState{node: n, healthy: true}
	}
	r.topo, r.ring, r.nodes = t, ring, nodes
	r.mu.Unlock()
}

// Run drives the health/failover loop until stop closes.
func (r *Router) Run(stop <-chan struct{}) {
	t := time.NewTicker(r.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		r.checkOnce()
	}
}

// checkOnce probes every partition's active leader and triggers
// failovers past the threshold.
func (r *Router) checkOnce() {
	r.mu.RLock()
	states := make([]*nodeState, 0, len(r.nodes))
	for _, n := range r.nodes {
		states = append(states, n)
	}
	r.mu.RUnlock()
	var wg sync.WaitGroup
	for _, ns := range states {
		wg.Add(1)
		go func(ns *nodeState) {
			defer wg.Done()
			r.checkNode(ns)
		}(ns)
	}
	wg.Wait()
}

func (r *Router) checkNode(ns *nodeState) {
	ns.mu.Lock()
	if ns.promoted {
		ns.mu.Unlock()
		return // already failed over; no fail-back
	}
	target := ns.node.URL
	ns.mu.Unlock()

	err := r.probe(target)
	ns.mu.Lock()
	if err == nil {
		ns.fails = 0
		ns.healthy = true
		ns.mu.Unlock()
		return
	}
	if ns.fails == 0 {
		ns.firstFail = time.Now()
	}
	ns.fails++
	fails := ns.fails
	trigger := fails >= r.FailThreshold && ns.node.Standby != ""
	if trigger {
		ns.healthy = false
	}
	ns.mu.Unlock()
	if !trigger {
		return
	}
	r.failover(ns)
}

func (r *Router) probe(base string) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: http %d", resp.StatusCode)
	}
	return nil
}

// failover promotes ns's standby and flips the partition's active
// target. The recorded failover time runs from the FIRST failed probe
// to promotion complete — the full client-visible outage window
// (detection latency included), not just the promote round-trip.
func (r *Router) failover(ns *nodeState) {
	ns.mu.Lock()
	start := ns.firstFail
	ns.mu.Unlock()
	if start.IsZero() {
		start = time.Now()
	}
	r.Logger.Warn("leader unreachable, promoting standby",
		"node", ns.node.ID, "leader", ns.node.URL, "standby", ns.node.Standby)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ns.node.Standby+promotePath, nil)
	if err != nil {
		r.Logger.Error("promote request", "node", ns.node.ID, "err", err)
		return
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		r.Logger.Error("promote failed, will retry next probe", "node", ns.node.ID, "err", err)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.Logger.Error("promote rejected, will retry next probe",
			"node", ns.node.ID, "status", resp.StatusCode, "body", string(body))
		return
	}
	ns.mu.Lock()
	ns.promoted = true
	ns.mu.Unlock()
	ms := time.Since(start).Milliseconds()
	if ms < 1 {
		ms = 1
	}
	r.failovers.Add(1)
	r.lastFailoverMs.Store(ms)
	r.Logger.Warn("standby promoted", "node", ns.node.ID, "failover_ms", ms, "detail", string(body))
}

// Failovers / LastFailoverMs expose the failover counters for /stats
// and the failover_ms benchmark highlight.
func (r *Router) Failovers() int64 { return r.failovers.Load() }

// LastFailoverMs is the promotion duration of the most recent failover.
func (r *Router) LastFailoverMs() int64 { return r.lastFailoverMs.Load() }

// ownerFor resolves a user to its partition state.
func (r *Router) ownerFor(user string) *nodeState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.nodes[r.ring.Owner(user)]
}

// anyNode returns some partition (for user-less endpoints like
// /api/services — every node carries the full same-seed catalog).
func (r *Router) anyNode() *nodeState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, n := range r.ring.Nodes() {
		return r.nodes[n.ID]
	}
	return nil
}

// writePaths are the mutating endpoints: they route by body user, carry
// the ack barrier, and are rejected while a partition is promoting.
var writePaths = map[string]bool{
	"/api/users":    true,
	"/api/track":    true,
	"/api/feedback": true,
	"/api/compact":  true,
}

// Handler returns the router's HTTP surface: its own health/stats plus
// the forwarding front door.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/readyz", r.handleReady)
	mux.HandleFunc("/router/stats", r.handleStats)
	mux.HandleFunc("/", r.forward)
	return mux
}

func (r *Router) handleReady(w http.ResponseWriter, req *http.Request) {
	// The router is ready when every partition has a live target.
	r.mu.RLock()
	states := make([]*nodeState, 0, len(r.nodes))
	for _, n := range r.nodes {
		states = append(states, n)
	}
	r.mu.RUnlock()
	for _, ns := range states {
		ns.mu.Lock()
		dead := !ns.healthy && !ns.promoted && ns.node.Standby == ""
		ns.mu.Unlock()
		if dead {
			http.Error(w, fmt.Sprintf(`{"ready":false,"node":%q}`, ns.node.ID), http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ready":true}`)
}

// RouterStats is the /router/stats view.
type RouterStats struct {
	TopologyVersion int               `json:"topology_version"`
	Nodes           []RouterNodeView  `json:"nodes"`
	Failovers       int64             `json:"failovers"`
	LastFailoverMs  int64             `json:"last_failover_ms"`
	Ownership       map[string]string `json:"-"`
}

// RouterNodeView is one partition in /router/stats.
type RouterNodeView struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	Standby  string `json:"standby,omitempty"`
	Healthy  bool   `json:"healthy"`
	Promoted bool   `json:"promoted"`
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	r.mu.RLock()
	st := RouterStats{TopologyVersion: r.topo.Version}
	ids := r.ring.Nodes()
	nodes := make([]*nodeState, 0, len(ids))
	for _, n := range ids {
		nodes = append(nodes, r.nodes[n.ID])
	}
	r.mu.RUnlock()
	for _, ns := range nodes {
		ns.mu.Lock()
		st.Nodes = append(st.Nodes, RouterNodeView{
			ID: ns.node.ID, URL: ns.node.URL, Standby: ns.node.Standby,
			Healthy: ns.healthy, Promoted: ns.promoted,
		})
		ns.mu.Unlock()
	}
	st.Failovers = r.failovers.Load()
	st.LastFailoverMs = r.lastFailoverMs.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// userOf extracts the partition key from a request: the user/user_id
// query parameter, a path suffix under /api/users/, or the user_id
// field of a JSON body (which is re-readable afterwards — the body is
// buffered by forward before this runs).
func userOf(req *http.Request, body []byte) string {
	q := req.URL.Query()
	if u := q.Get("user"); u != "" {
		return u
	}
	if u := q.Get("user_id"); u != "" {
		return u
	}
	if rest, ok := strings.CutPrefix(req.URL.Path, "/api/users/"); ok && rest != "" {
		return rest
	}
	if len(body) > 0 {
		var probe struct {
			UserID string `json:"user_id"`
		}
		if err := json.Unmarshal(body, &probe); err == nil {
			return probe.UserID
		}
	}
	return ""
}

// forward proxies one request to the partition owning its user.
func (r *Router) forward(w http.ResponseWriter, req *http.Request) {
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(req.Body, 16<<20))
		if err != nil {
			http.Error(w, `{"error":"reading body"}`, http.StatusBadRequest)
			return
		}
	}
	if req.URL.Path == "/api/plan/batch" {
		// A batch can span partitions; the router does not split it.
		http.Error(w, `{"error":"plan batch is not routable; send per-user /api/plan"}`, http.StatusNotImplemented)
		return
	}
	user := userOf(req, body)
	var ns *nodeState
	if user != "" {
		ns = r.ownerFor(user)
	} else {
		ns = r.anyNode()
	}
	if ns == nil {
		http.Error(w, `{"error":"no node for request"}`, http.StatusServiceUnavailable)
		return
	}
	isWrite := req.Method != http.MethodGet && writePaths[req.URL.Path]
	target, replica := ns.activeURL()
	if isWrite && replica {
		// Leader presumed dead, promotion in flight: writes cannot be
		// made durable-and-replicated right now. 503 + Retry-After lets
		// the client's backoff absorb the failover window.
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"partition failing over; retry"}`, http.StatusServiceUnavailable)
		return
	}

	ctx, cancel := context.WithTimeout(req.Context(), r.ProxyTimeout)
	defer cancel()
	out, err := http.NewRequestWithContext(ctx, req.Method, target+req.URL.Path+query(req), bytes.NewReader(body))
	if err != nil {
		http.Error(w, `{"error":"building upstream request"}`, http.StatusInternalServerError)
		return
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	resp, err := r.hc.Do(out)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":"upstream %s unreachable"}`, ns.node.ID), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		http.Error(w, `{"error":"reading upstream response"}`, http.StatusBadGateway)
		return
	}

	// Semi-sync ack barrier: hold the 2xx of a write until the
	// partition's follower has applied at least the write's sequence.
	if isWrite && resp.StatusCode < 300 {
		if err := r.ackBarrier(ctx, ns, resp.Header.Get(httpapi.HeaderWalSeq)); err != nil {
			// NOT acked: the write may or may not survive a leader loss
			// right now. 504 tells the client to treat it as unacked.
			http.Error(w, fmt.Sprintf(`{"error":"replication ack timeout: %v"}`, err), http.StatusGatewayTimeout)
			return
		}
	}

	for _, h := range []string{"Content-Type", httpapi.HeaderWalSeq} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Pphcr-Node", ns.node.ID)
	w.WriteHeader(resp.StatusCode)
	w.Write(respBody)
}

func query(req *http.Request) string {
	if req.URL.RawQuery == "" {
		return ""
	}
	return "?" + req.URL.RawQuery
}

// ackBarrier long-polls the partition's follower until it has applied
// walSeq. A partition without a standby (or after promotion, when the
// promoted node has no follower yet) acks immediately — durability is
// then single-node, exactly as documented.
func (r *Router) ackBarrier(ctx context.Context, ns *nodeState, walSeqHeader string) error {
	if walSeqHeader == "" {
		return nil // not a replication-aware response
	}
	ns.mu.Lock()
	standby := ns.node.Standby
	promoted := ns.promoted
	ns.mu.Unlock()
	if standby == "" || promoted {
		return nil
	}
	seq, err := strconv.ParseUint(walSeqHeader, 10, 64)
	if err != nil || seq == 0 {
		return nil
	}
	ackCtx, cancel := context.WithTimeout(ctx, r.AckTimeout)
	defer cancel()
	q := url.Values{
		"seq":        {strconv.FormatUint(seq, 10)},
		"timeout_ms": {strconv.FormatInt(r.AckTimeout.Milliseconds(), 10)},
	}
	req, err := http.NewRequestWithContext(ackCtx, http.MethodGet, standby+waitPath+"?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("follower wait: http %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return nil
}

// ReloadTopology installs a newer topology and rebalances: for every
// user whose owner changed, the new owner replays the user's WAL slice
// fetched from the old owner. The router discovers each node's users
// through its /api/users listing, so no side channel is needed. Returns
// the number of users moved.
func (r *Router) ReloadTopology(t *Topology) (int, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	r.mu.RLock()
	oldTopo, oldRing := r.topo, r.ring
	r.mu.RUnlock()
	if t.Version <= oldTopo.Version {
		return 0, fmt.Errorf("replicate: topology version %d is not newer than %d", t.Version, oldTopo.Version)
	}
	newRing := NewRing(t)

	// moved[newOwnerID][sourceURL] = users to replay there from source.
	moved := make(map[string]map[string][]string)
	total := 0
	for _, n := range oldRing.Nodes() {
		ns := func() *nodeState {
			r.mu.RLock()
			defer r.mu.RUnlock()
			return r.nodes[n.ID]
		}()
		if ns == nil {
			continue
		}
		source, _ := ns.activeURL()
		users, err := r.listUsers(source)
		if err != nil {
			return 0, fmt.Errorf("replicate: listing users on %s: %w", n.ID, err)
		}
		for _, u := range users {
			if oldRing.Owner(u) != n.ID {
				continue // replica listing overlap; owner handles it
			}
			newOwner := newRing.Owner(u)
			if newOwner == n.ID {
				continue
			}
			if moved[newOwner] == nil {
				moved[newOwner] = make(map[string][]string)
			}
			moved[newOwner][source] = append(moved[newOwner][source], u)
			total++
		}
	}

	for newOwner, bySource := range moved {
		dest, ok := newRing.Node(newOwner)
		if !ok {
			continue
		}
		destURL := dest.URL
		if ns := func() *nodeState {
			r.mu.RLock()
			defer r.mu.RUnlock()
			return r.nodes[newOwner]
		}(); ns != nil {
			destURL, _ = ns.activeURL()
		}
		for source, users := range bySource {
			if err := r.requestRebalance(destURL, source, users); err != nil {
				return 0, fmt.Errorf("replicate: rebalancing %d users to %s: %w", len(users), newOwner, err)
			}
			r.Logger.Info("rebalanced", "users", len(users), "from", source, "to", newOwner)
		}
	}

	r.install(t)
	return total, nil
}

func (r *Router) listUsers(base string) ([]string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.ProxyTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/users", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("http %d", resp.StatusCode)
	}
	var users []string
	if err := json.NewDecoder(resp.Body).Decode(&users); err != nil {
		return nil, err
	}
	return users, nil
}

// RebalanceRequest is the body of POST /replication/rebalance on the
// new owner: replay these users' WAL slice from source.
type RebalanceRequest struct {
	Source string   `json:"source"`
	Users  []string `json:"users"`
}

// RebalanceResponse reports what the new owner applied.
type RebalanceResponse struct {
	Users   int `json:"users"`
	Applied int `json:"applied"`
}

func (r *Router) requestRebalance(dest, source string, users []string) error {
	body, err := json.Marshal(RebalanceRequest{Source: source, Users: users})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, dest+"/replication/rebalance", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("http %d: %s", resp.StatusCode, strings.TrimSpace(string(respBody)))
	}
	return nil
}

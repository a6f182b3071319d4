// Package cluster runs N brokers as one logical broker. Topics are
// partitioned by a stable hash; partitions are assigned to nodes by
// rendezvous (highest-random-weight) hashing, so membership is the only
// shared state and any node computes any frame's owner locally. A device
// or translator session may connect to ANY node: frames released on a
// non-owner are forwarded over a pooled MQTT-SN bridge link to the
// owner, whose routing and consumer-group machinery then behaves
// exactly as in the single-broker case. A frame crosses the link at the
// QoS it arrived with (QoS 2 from memory-mode devices; QoS 1 from spooled
// ones, whose exactly-once is the store's dedup), and per-workflow
// (per-topic) order survives the extra hop on a loss-free link because
// each (source node, owner) pair shares one link session whose frames
// are submitted in routing order.
//
// Membership is static-first: New starts a fixed set of nodes; Join and
// Leave change it at runtime by migrating the moved partitions live —
// pause, drain the old owner, hand off its queued and in-flight frames
// in order, switch the topology, flush. A one-node cluster is byte-for-
// byte today's broker: no forwarding, no links, no behavior change.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/transport"
)

// Config sizes a cluster.
type Config struct {
	// Nodes is the initial node count (default 1). Ignored when Addrs is
	// set.
	Nodes int
	// Addrs optionally pins each initial node's broker listen address;
	// empty entries (and all nodes when Addrs is nil) pick free
	// addresses.
	Addrs []string
	// Transport carries both client traffic and inter-node links.
	// Defaults to UDP; tests use transport.NewLoopback for determinism.
	Transport transport.Transport
	// Partitions is the hash-space size (default 64). It bounds
	// migration granularity, not throughput; it cannot change after New.
	Partitions int
	// RetryInterval / MaxRetries tune the bridge links' QoS machinery
	// (defaults: client defaults).
	RetryInterval time.Duration
	MaxRetries    int
	// DrainTimeout bounds how long a migration waits for an old owner to
	// drain before detaching its remaining frames (at-least-once) and
	// proceeding. Default 30s.
	DrainTimeout time.Duration
	// HeartbeatInterval paces the failure detector: every node pings the
	// peer of every link this often, and the detector evaluates suspicion
	// at the same cadence. Default 1s; negative disables the detector (and
	// the pings) entirely.
	HeartbeatInterval time.Duration
	// SuspectTimeout is how long a node's link to a peer must hear nothing
	// before the node suspects the peer; it is also the links' MQTT-SN
	// keepalive while the detector runs (30s without it). A member is
	// declared dead — and crash takeover runs — only when at least two
	// members agree (the lone other member in a two-node cluster), so one
	// bad link cannot evict a healthy node. Default 5× HeartbeatInterval.
	SuspectTimeout time.Duration
	// OnDemoted, when set, is called (on its own goroutine) with a node's
	// id after the node discovered it was fenced out of membership and
	// shut itself down. Operators rejoin via Join; tests assert on it.
	OnDemoted func(id string)
	// BrokerRetryInterval / BrokerMaxRetries are passed to each node's
	// broker config (zero keeps broker defaults).
	BrokerRetryInterval time.Duration
	BrokerMaxRetries    int
	// Metrics, when set, exports the whole cluster through one scrape-time
	// collector (per-node broker counters, forward/migration/self-healing
	// counters, per-peer link health labeled node+peer) and feeds each
	// node's broker-route and forward-hop stage latency histograms. One
	// collector for all nodes — membership churn cannot strand stale
	// per-node collectors in a shared registry.
	Metrics *obs.Registry
	// Logf receives diagnostics; nil discards them.
	Logf func(format string, args ...any)
}

// Cluster owns its nodes and serializes membership changes.
type Cluster struct {
	cfg Config
	tr  transport.Transport

	mu     sync.Mutex // membership + migration + topology root
	nodes  map[string]*Node
	order  []string // ids in start order, for stable Stats/Addrs
	topo   *topology
	nextID int
	epoch  uint64 // bumped by computeTopology on every membership change
	closed bool

	// removed holds nodes taken out of membership by Remove but not shut
	// down by the cluster: a genuinely crashed node's object is inert,
	// and a zombie keeps running on its stale topology until fencing
	// demotes it. Tracked so Close can reap whatever is left.
	removed map[string]*Node

	// members is the lock-free membership snapshot the broker connect
	// gates read on their shard path (never under c.mu).
	members atomic.Pointer[map[string]bool]

	done chan struct{} // stops the detector
	wg   sync.WaitGroup
}

// New starts the initial membership and wires the full link mesh so
// filter propagation is in place before any traffic flows.
func New(cfg Config) (*Cluster, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 64
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.SuspectTimeout <= 0 {
		cfg.SuspectTimeout = 5 * cfg.HeartbeatInterval
	}
	tr := cfg.Transport
	if tr == nil {
		tr = transport.UDP{}
	}
	n := cfg.Nodes
	if len(cfg.Addrs) > 0 {
		n = len(cfg.Addrs)
	}
	if n <= 0 {
		n = 1
	}
	c := &Cluster{
		cfg:     cfg,
		tr:      tr,
		nodes:   map[string]*Node{},
		removed: map[string]*Node{},
		done:    make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		addr := ""
		if i < len(cfg.Addrs) {
			addr = cfg.Addrs[i]
		}
		if _, err := c.startNode(addr); err != nil {
			c.Close()
			return nil, err
		}
	}
	c.install(c.computeTopology(c.order))
	c.meshLinks(context.Background())
	if cfg.HeartbeatInterval > 0 {
		c.wg.Add(1)
		go c.detector()
	}
	if cfg.Metrics != nil {
		c.registerMetrics(cfg.Metrics)
	}
	return c, nil
}

// registerMetrics installs the cluster's one scrape-time collector: every
// current member's broker counters (labeled node=<id>), the cluster-layer
// forward/migration/self-healing counters, and per-peer link health
// (labeled node+peer). Reading Stats() live means nodes added by Join
// appear and removed nodes disappear without collector churn.
func (c *Cluster) registerMetrics(r *obs.Registry) {
	r.Collect(func(e *obs.Emitter) {
		for _, ns := range c.Stats() {
			lbl := []string{"node", ns.ID}
			broker.EmitStats(e, ns.Broker, lbl...)
			e.Gauge("provlight_cluster_epoch", "Membership epoch of the node's installed topology.", float64(ns.Epoch), lbl...)
			e.Gauge("provlight_cluster_partitions_owned", "Partitions this node currently owns.", float64(len(ns.Partitions)), lbl...)
			e.Counter("provlight_cluster_forwarded_out_total", "Frames enqueued to peer forwarding links.", float64(ns.ForwardedOut), lbl...)
			e.Counter("provlight_cluster_migrated_total", "Frames handed off through migration buffers or detached during handoffs.", float64(ns.Migrated), lbl...)
			e.Counter("provlight_cluster_link_lost_total", "Forwarded frames dropped for good (teardown, fencing).", float64(ns.LinkLost), lbl...)
			e.Counter("provlight_cluster_takeover_redelivered_total", "Frames re-forwarded to new owners after harvesting a dead peer's link.", float64(ns.TakeoverRedelivered), lbl...)
			e.Counter("provlight_cluster_epoch_refused_total", "Bridge connects refused because the dialer was fenced out of membership.", float64(ns.EpochRefused), lbl...)
			for _, lh := range ns.Links {
				plbl := []string{"node", ns.ID, "peer", lh.Peer}
				e.Gauge("provlight_cluster_peer_heartbeat_age_seconds", "How long this node's link to the peer has heard nothing from it.", float64(lh.LastHeartbeatAgeMs)/1000, plbl...)
				suspect := 0.0
				if lh.Suspect {
					suspect = 1
				}
				e.Gauge("provlight_cluster_peer_suspect", "1 while the peer is silent past the suspicion timeout.", suspect, plbl...)
				e.Counter("provlight_cluster_link_redials_total", "Successful link re-dials after session loss.", float64(lh.Redials), plbl...)
				up := 0.0
				if lh.State == LinkConnected {
					up = 1
				}
				e.Gauge("provlight_cluster_link_up", "1 while a live bridge session to the peer is established.", up, plbl...)
			}
		}
	})
}

// startNode boots one broker with the cluster hooks attached. Caller
// holds c.mu or is inside New.
func (c *Cluster) startNode(addr string) (*Node, error) {
	id := fmt.Sprintf("n%d", c.nextID)
	c.nextID++
	n := &Node{
		id:         id,
		c:          c,
		paused:     map[int]bool{},
		fwdPending: map[int]int{},
		links:      map[string]*link{},
		filters:    map[string]int{},
		subCh:      make(chan subChange, 1024),
		done:       make(chan struct{}),
	}
	b, err := broker.New(broker.Config{
		Addr:          addr,
		Transport:     c.tr,
		RetryInterval: c.cfg.BrokerRetryInterval,
		MaxRetries:    c.cfg.BrokerMaxRetries,
		Forward:       n.forwardHook,
		OnSubscribe:   n.onSubscribe,
		OnUnsubscribe: n.onUnsubscribe,
		ConnectGate:   c.connectGate(n),
		Metrics:       c.cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	n.b = b
	if c.cfg.Metrics != nil {
		n.stageForward = obs.StageLatency(c.cfg.Metrics).With(obs.StageForwardHop)
	}
	n.wg.Add(1)
	go n.subWorker()
	if c.cfg.HeartbeatInterval > 0 {
		n.wg.Add(1)
		go n.probeLoop(c.cfg.HeartbeatInterval)
	}
	c.nodes[id] = n
	c.order = append(c.order, id)
	return n, nil
}

// computeTopology builds the partition map for a membership set, bumping
// the fencing epoch (every computed topology represents a membership
// decision; monotonicity is all fencing needs).
func (c *Cluster) computeTopology(ids []string) *topology {
	addrs := make(map[string]string, len(ids))
	for _, id := range ids {
		addrs[id] = c.nodes[id].b.Addr()
	}
	c.epoch++
	return &topology{
		partitions: c.cfg.Partitions,
		owner:      rendezvousOwners(c.cfg.Partitions, ids),
		addrs:      addrs,
		epoch:      c.epoch,
	}
}

// install publishes a topology to every node and the cluster root, and
// refreshes the gate membership snapshot.
func (c *Cluster) install(tp *topology) {
	for _, n := range c.nodes {
		n.fmu.Lock()
		n.topo = tp
		n.fmu.Unlock()
	}
	c.topo = tp
	c.syncMembers()
}

// syncMembers rebuilds the lock-free membership snapshot from c.nodes.
// Caller holds c.mu.
func (c *Cluster) syncMembers() {
	m := make(map[string]bool, len(c.nodes))
	for id := range c.nodes {
		m[id] = true
	}
	c.members.Store(&m)
}

// meshLinks dials every ordered node pair and waits (bounded by ctx and
// DrainTimeout) until each link's first session is set up, so propagated
// filters exist on peers before the first matching frame, not after.
func (c *Cluster) meshLinks(ctx context.Context) {
	var ready []chan struct{}
	for _, id := range c.order {
		n := c.nodes[id]
		for _, pid := range c.order {
			if pid == id {
				continue
			}
			if l := n.linkTo(pid, c.nodes[pid].b.Addr()); l != nil {
				ready = append(ready, l.ready)
			}
		}
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.DrainTimeout)
	defer cancel()
	for _, r := range ready {
		select {
		case <-r:
		case <-ctx.Done():
		}
	}
}

// Addrs lists the nodes' broker addresses in start order — feed it to
// translate.Config.ClusterAddrs or device configs.
func (c *Cluster) Addrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, 0, len(c.order))
	for _, id := range c.order {
		addrs = append(addrs, c.nodes[id].b.Addr())
	}
	return addrs
}

// NodeIDs lists member ids in start order.
func (c *Cluster) NodeIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// Node returns a member by id, or nil.
func (c *Cluster) Node(id string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// Join starts a fresh node, meshes it into the link graph, and migrates
// the partitions rendezvous assigns to it — live, preserving order and
// QoS 2 exactly-once for the moved topics. Returns the new node's id.
func (c *Cluster) Join(ctx context.Context) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", fmt.Errorf("cluster: closed")
	}
	n, err := c.startNode("")
	if err != nil {
		return "", err
	}
	// Interim topology: old ownership, new address book — peers can dial
	// the joiner (and it them) before any partition moves.
	full := c.computeTopology(c.order)
	interim := &topology{
		partitions: c.topo.partitions,
		owner:      c.topo.owner,
		addrs:      full.addrs,
		epoch:      full.epoch,
	}
	c.install(interim)
	c.meshLinks(ctx)
	c.migrate(ctx, c.computeTopology(c.order))
	return n.id, nil
}

// Leave migrates a node's partitions to the survivors, then shuts it
// down. Its local clients are disconnected by the broker close and are
// expected to redial another node (translator supervisors and device
// spools already do). The last node cannot leave.
func (c *Cluster) Leave(ctx context.Context, id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	leaving, survivors, err := c.departing(id)
	if err != nil {
		return err
	}
	c.migrate(ctx, c.computeTopology(survivors))
	delete(c.nodes, id)
	c.order = survivors
	for _, sid := range survivors {
		c.nodes[sid].dropLink(id)
	}
	leaving.close()
	return nil
}

// departing checks that node id may leave the membership and returns it
// with the survivors in start order. Caller holds c.mu.
func (c *Cluster) departing(id string) (*Node, []string, error) {
	if c.closed {
		return nil, nil, fmt.Errorf("cluster: closed")
	}
	n := c.nodes[id]
	if n == nil {
		return nil, nil, fmt.Errorf("cluster: unknown node %q", id)
	}
	if len(c.nodes) == 1 {
		return nil, nil, fmt.Errorf("cluster: cannot remove the last node")
	}
	survivors := make([]string, 0, len(c.order)-1)
	for _, oid := range c.order {
		if oid != id {
			survivors = append(survivors, oid)
		}
	}
	return n, survivors, nil
}

// Remove takes a dead (or unreachable) node out of membership WITHOUT
// draining it — crash takeover. The failure detector calls it when
// enough peers confirm silence; operators and tests may call it
// directly. Unlike Leave, the node is not asked anything:
//
//  1. Membership shrinks first: the dead node leaves c.nodes and the
//     gate snapshot, so any zombie redial is refused from this moment.
//  2. Fence established sessions: every survivor disconnects the dead
//     node's bridge sessions, so a zombie that is merely slow (not dead)
//     loses its live forwarding paths too and demotes itself.
//  3. Takeover: the dead node's partitions pause on the survivors; each
//     survivor tears down its link to the dead node and harvests the
//     kept unacknowledged + queued frames, prepending them (in send order)
//     to its forwarding buffer for redelivery to the new owners.
//  4. Switch + flush new-owners-first, exactly like migrate step 4
//     (both run through switchOver).
//
// Redelivered frames may already have been routed by the dead broker
// before it died (the ack is what's missing), so takeover is
// at-least-once per moved flow; QoS 2 end-to-end dedup (device spool +
// store target dedup) restores exactly-once above it. Per-link
// send order is preserved; interleaving ACROSS surviving forwarders is
// not (each survivor redelivers its own kept frames independently).
func (c *Cluster) Remove(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removeLocked(id)
}

// removeLocked implements Remove with c.mu held (the detector calls it
// inline from its sweep).
func (c *Cluster) removeLocked(id string) error {
	dead, survivors, err := c.departing(id)
	if err != nil {
		return err
	}
	c.logf("cluster: removing %s (crash takeover)", id)

	// 1. Shrink membership. The dead node keeps its stale topology and
	// epoch — that staleness is what fencing refuses if it turns out to
	// be a zombie rather than a corpse.
	delete(c.nodes, id)
	c.order = survivors
	c.removed[id] = dead
	newTopo := c.computeTopology(survivors)
	old := c.topo
	c.syncMembers()

	// 2. Fence established inbound bridge sessions from the dead node.
	prefix := broker.BridgeSessionPrefix + id + "@"
	for _, sid := range survivors {
		c.nodes[sid].b.DisconnectClientsPrefix(prefix)
	}

	// 3. Takeover: harvest the links to the corpse while the moved
	// partitions are paused, then 4. switch + flush.
	moved := map[int]bool{}
	for _, p := range old.ownedBy(id) {
		moved[p] = true
	}
	c.switchOver(survivors, newTopo, moved, func(nodes []*Node) {
		for _, n := range nodes {
			if harvested := n.harvestLink(id); len(harvested) > 0 {
				n.prependBuffer(harvested)
				n.takeoverRedelivered.Add(uint64(len(harvested)))
				c.logf("cluster: %s redelivering %d retained frames for partitions of %s", n.id, len(harvested), id)
			}
		}
	})
	c.logf("cluster: %s removed at epoch %d; %d partitions reassigned", id, newTopo.epoch, len(moved))
	return nil
}

// Kill hard-stops a node without touching membership — SIGKILL
// semantics for tests and chaos harnesses. The cluster still believes
// the node is a member; the failure detector (or an explicit Remove)
// must notice. Frames queued inside the killed process are lost at the
// broker layer, exactly as in a real crash.
func (c *Cluster) Kill(id string) error {
	c.mu.Lock()
	n := c.nodes[id]
	c.mu.Unlock()
	if n == nil {
		return fmt.Errorf("cluster: unknown node %q", id)
	}
	n.close()
	return nil
}

// noteDemoted is called by a zombie node after fencing made it shut
// itself down: forget its object (it closed itself) and surface the
// event.
func (c *Cluster) noteDemoted(id string) {
	c.mu.Lock()
	delete(c.removed, id)
	cb := c.cfg.OnDemoted
	c.mu.Unlock()
	if cb != nil {
		cb(id)
	}
}

// migrate moves ownership from c.topo to newTopo with per-topic order
// and QoS 2 exactly-once preserved for the moved partitions:
//
//  1. Pause the moved partitions on every node — frames released for
//     them buffer locally instead of routing or forwarding.
//  2. Drain each old owner: wait until no node has a forward in flight
//     toward it for a moved partition AND its broker has delivered its
//     queued/in-flight frames for moved topics. The forward-pending
//     counter only drops after the owner has routed a frame (the broker
//     acks a QoS 2 release post-routing), so sampling forwards-then-
//     broker cannot miss a frame mid-hop. On timeout, detach the
//     stragglers from the broker in order (at-least-once for those
//     frames only).
//  3. Hand off in-process: each old owner's buffer — prefixed by any
//     detached frames, which are older — is prepended to the new
//     owners' buffers. Per topic, all pre-pause frames now sit in ONE
//     buffer ahead of anything buffered elsewhere, because a topic's
//     younger frames only buffer on its publisher's node.
//  4. Switch and flush, new owners first: each new owner installs the
//     topology and drains its buffer (Submit locally, link to peers),
//     unpausing atomically with the final emptiness check; then every
//     other node does the same. A publisher node's younger frames
//     therefore cannot reach the new owner before the handed-off older
//     frames have been routed.
//
// Single-membership-change deltas (Join/Leave) make the old-owner and
// new-owner sets disjoint (see rendezvousOwners), which step 4's
// ordering relies on. Caller holds c.mu.
func (c *Cluster) migrate(ctx context.Context, newTopo *topology) {
	old := c.topo
	moved := map[int]bool{}
	oldOwnerParts := map[string]map[int]bool{}
	for p := range newTopo.owner {
		if old.owner[p] == newTopo.owner[p] {
			continue
		}
		moved[p] = true
		op := old.owner[p]
		if oldOwnerParts[op] == nil {
			oldOwnerParts[op] = map[int]bool{}
		}
		oldOwnerParts[op][p] = true
	}
	if len(moved) == 0 {
		c.install(newTopo)
		return
	}
	c.logf("cluster: migrating %d partitions from %d node(s)", len(moved), len(oldOwnerParts))
	// Stable iteration for reproducible logs.
	oldOwners := make([]string, 0, len(oldOwnerParts))
	for id := range oldOwnerParts {
		oldOwners = append(oldOwners, id)
	}
	sort.Strings(oldOwners)
	c.switchOver(c.order, newTopo, moved, func(nodes []*Node) {
		// 2. Drain old owners.
		for _, oid := range oldOwners {
			o := c.nodes[oid]
			parts := oldOwnerParts[oid]
			match := partsMatcher(old.partitions, parts)
			drained := c.waitDrained(ctx, nodes, o, parts, match)
			c.logf("cluster: drain of %s done (clean=%v)", oid, drained)
			if !drained {
				left := o.b.DetachMatching(match)
				if len(left) > 0 {
					c.logf("cluster: drain timeout on %s: detached %d in-flight frames (at-least-once)", oid, len(left))
					detached := make([]bufFrame, 0, len(left))
					for _, f := range left {
						detached = append(detached, bufFrame{part: PartitionOf(f.Topic, old.partitions), f: f})
					}
					o.prependBuffer(detached)
				}
			}
		}
		// 3. In-process handoff: old owners' buffers -> new owners' buffers.
		for _, oid := range oldOwners {
			buf := c.nodes[oid].takeBuffer()
			perOwner := map[string][]bufFrame{}
			ownerSeen := []string{}
			for _, bf := range buf {
				nid := newTopo.owner[bf.part]
				if perOwner[nid] == nil {
					ownerSeen = append(ownerSeen, nid)
				}
				perOwner[nid] = append(perOwner[nid], bf)
			}
			for _, nid := range ownerSeen {
				c.nodes[nid].prependBuffer(perOwner[nid])
			}
		}
	})
}

// switchOver moves the nodes ids to newTopo: it pauses the moved
// partitions on every node, runs handoff, which fills the nodes' buffers
// with the frames the moved partitions' new owners must route first, then
// switches and flushes the new owners before every other node, and
// finally installs newTopo as the cluster's. A publisher node's younger
// frames therefore cannot reach a new owner before the handed-off older
// ones were routed. Caller holds c.mu.
func (c *Cluster) switchOver(ids []string, newTopo *topology, moved map[int]bool, handoff func(nodes []*Node)) {
	nodes := make([]*Node, 0, len(ids))
	for _, id := range ids {
		nodes = append(nodes, c.nodes[id])
	}
	for _, n := range nodes {
		n.pause(moved)
	}
	handoff(nodes)
	newOwners := map[string]bool{}
	for p := range moved {
		newOwners[newTopo.owner[p]] = true
	}
	for _, first := range []bool{true, false} {
		for _, n := range nodes {
			if newOwners[n.id] == first {
				n.switchAndFlush(newTopo, moved)
			}
		}
	}
	c.topo = newTopo
}

// waitDrained polls until old owner o holds no undelivered frame for the
// moved partitions: first the cluster-wide forward-pending counters
// (which a frame only leaves after o routed it), then o's broker queues.
func (c *Cluster) waitDrained(ctx context.Context, nodes []*Node, o *Node, parts map[int]bool, match func(string) bool) bool {
	deadline := time.Now().Add(c.cfg.DrainTimeout)
	for {
		pending := 0
		for _, n := range nodes {
			pending += n.pendingForParts(parts)
		}
		if pending == 0 && o.b.PendingForTopics(match) == 0 {
			return true
		}
		if ctx != nil && ctx.Err() != nil {
			return false
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TopologyInfo is the ownership table snapshot surfaced in stats.
type TopologyInfo struct {
	Partitions int      `json:"partitions"`
	Owners     []string `json:"owners"` // partition index -> node id
	Epoch      uint64   `json:"epoch"`  // membership fencing epoch
}

// Topology returns the current partition map.
func (c *Cluster) Topology() TopologyInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TopologyInfo{
		Partitions: c.topo.partitions,
		Owners:     append([]string(nil), c.topo.owner...),
		Epoch:      c.topo.epoch,
	}
}

// LinkHealth is one node's view of one inter-node link, surfaced in
// stats for operators watching a cluster heal.
type LinkHealth struct {
	Peer    string    `json:"peer"`
	State   LinkState `json:"state"`   // connected / down / fenced
	Suspect bool      `json:"suspect"` // peer silent past the suspicion timeout
	Redials uint64    `json:"redials"` // successful re-dials after session loss
	// LastHeartbeatAgeMs is how long the link has heard nothing from the
	// peer, across sessions (since the link's creation if never).
	LastHeartbeatAgeMs int64  `json:"last_heartbeat_age_ms"`
	Epoch              uint64 `json:"epoch"` // epoch the session dialed at
}

// NodeStats is one node's view: identity, ownership, broker counters,
// and the cluster-layer forward/migration/self-healing counters.
type NodeStats struct {
	ID           string       `json:"id"`
	Addr         string       `json:"addr"`
	Partitions   []int        `json:"partitions"`
	Broker       broker.Stats `json:"broker"`
	ForwardedOut uint64       `json:"forwarded_out"`
	Migrated     uint64       `json:"migrated"`
	LinkLost     uint64       `json:"link_lost"`
	// Epoch is the membership epoch of the node's installed topology.
	Epoch uint64 `json:"epoch"`
	// TakeoverRedelivered counts frames this node re-forwarded to new
	// owners after harvesting them from a dead peer's link.
	TakeoverRedelivered uint64 `json:"takeover_redelivered"`
	// EpochRefused counts bridge connects this node's gate refused
	// because the dialing node was fenced out of membership.
	EpochRefused uint64       `json:"epoch_refused"`
	Links        []LinkHealth `json:"links,omitempty"`
}

// Stats snapshots every node in start order.
func (c *Cluster) Stats() []NodeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeStats, 0, len(c.order))
	for _, id := range c.order {
		n := c.nodes[id]
		bs := n.b.Stats()
		out = append(out, NodeStats{
			ID:                  id,
			Addr:                n.b.Addr(),
			Partitions:          c.topo.ownedBy(id),
			Broker:              bs,
			ForwardedOut:        n.forwardedOut.Load(),
			Migrated:            n.migratedBuf.Load() + bs.Migrated,
			LinkLost:            n.linkLost.Load(),
			Epoch:               n.currentEpoch(),
			TakeoverRedelivered: n.takeoverRedelivered.Load(),
			EpochRefused:        n.epochRefused.Load(),
			Links:               n.linkHealth(c.cfg.SuspectTimeout),
		})
	}
	return out
}

// Close shuts down every node — members and any removed-but-unreaped
// zombies. Not a graceful leave: buffered link frames may be lost,
// which is fine at teardown.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	nodes := make([]*Node, 0, len(c.order)+len(c.removed))
	for _, id := range c.order {
		nodes = append(nodes, c.nodes[id])
	}
	for _, n := range c.removed {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	close(c.done)
	c.wg.Wait()
	for _, n := range nodes {
		n.close()
	}
}

func (c *Cluster) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

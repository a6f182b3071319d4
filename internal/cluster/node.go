package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/obs"
	"github.com/provlight/provlight/internal/wire"
)

// Node is one broker plus its cluster plumbing: the forward hook that
// steers released frames to their partition's owner, the pause buffer
// used during migration, the per-peer forwarding links, and the
// refcounted individual filters it propagates to peers so remote
// subscribers (device ack listeners, monitors) receive frames released
// on any node.
type Node struct {
	id string
	c  *Cluster
	b  *broker.Broker

	// fmu guards the forwarding view: the installed topology, the
	// paused-partition set, and the migration buffer. Held only for
	// map/slice work — network sends happen after unlock.
	fmu    sync.Mutex
	topo   *topology
	paused map[int]bool
	buf    []bufFrame

	// pendMu guards fwdPending: frames committed to a forwarding link
	// but not yet acknowledged routed by the owner, per partition. A
	// frame is counted here from inside the fmu critical section that
	// decided to forward it until its QoS handshake completes, so the
	// migration drain never sees a frame in neither counter. Lock order:
	// fmu may take pendMu, never the reverse.
	pendMu     sync.Mutex
	fwdPending map[int]int

	linkMu sync.Mutex
	links  map[string]*link

	// filterMu guards the refcounted individual filters local non-bridge
	// sessions hold; each distinct filter is subscribed once on every
	// peer link.
	filterMu sync.Mutex
	filters  map[string]int

	// subCh feeds the propagation worker: subscribe/unsubscribe hooks
	// must not block on peer round trips, so they enqueue and return.
	subCh chan subChange

	// demoted flips once when a peer's membership gate fences this node
	// out; the node then closes itself so local clients fail over.
	demoted atomic.Bool

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	forwardedOut atomic.Uint64 // frames enqueued to peer links
	migratedBuf  atomic.Uint64 // frames handed off through migration buffers
	linkLost     atomic.Uint64 // forwarded frames dropped for good (teardown, fencing)
	// takeoverRedelivered counts frames this forwarder re-delivered to a
	// partition's new owner after the old owner crashed (the kept
	// unacknowledged + queued frames a pre-self-healing cluster counted lost).
	takeoverRedelivered atomic.Uint64
	// epochRefused counts bridge CONNECTs this node's membership gate
	// refused — a non-zero value is the fingerprint of a fenced zombie
	// knocking.
	epochRefused atomic.Uint64

	// stageForward is the forward-hop stage of the e2e latency histogram
	// (nil without cluster Metrics): observed when a traced frame that
	// crossed a bridge link lands on its partition's owner.
	stageForward *obs.Histogram
}

// bufFrame is one buffered or link-queued frame with its precomputed
// partition.
type bufFrame struct {
	part int
	f    broker.ForwardFrame
}

type subChange struct {
	filter string
	add    bool
	// sync, when non-nil, marks a barrier: the worker closes it once
	// every previously enqueued change has been propagated. Tests use it
	// to wait out the asynchronous filter propagation deterministically.
	sync chan struct{}
}

// ID returns the node's cluster-unique id.
func (n *Node) ID() string { return n.id }

// Addr returns the node's broker listen address.
func (n *Node) Addr() string { return n.b.Addr() }

// Broker exposes the underlying broker (stats, direct inspection).
func (n *Node) Broker() *broker.Broker { return n.b }

// forwardHook is the broker's Forward hook: called once per fully
// released inbound publish. Returning true takes ownership of the frame.
func (n *Node) forwardHook(f broker.ForwardFrame) bool {
	n.fmu.Lock()
	tp := n.topo
	if tp == nil {
		n.fmu.Unlock()
		return false
	}
	part := PartitionOf(f.Topic, tp.partitions)
	if n.paused[part] {
		n.buf = append(n.buf, bufFrame{part: part, f: f})
		n.fmu.Unlock()
		return true
	}
	owner := tp.owner[part]
	if owner == n.id {
		n.fmu.Unlock()
		// A bridge-published frame reaching its owner has completed its
		// forward hop; record the hop's cumulative latency here, at the
		// receiving end, before local routing takes over.
		if f.Bridge && n.stageForward != nil {
			if ns, ok := wire.FrameCaptureNS(f.Payload); ok {
				obs.ObserveSince(n.stageForward, ns)
			}
		}
		return false // local routing handles it
	}
	n.forwardUnlock(tp, owner, part, f)
	return true
}

// forwardUnlock counts f as in flight for part, releases fmu, and hands f
// to the link for owner, dropping it (with a loss count) only if the peer
// cannot be dialed. Counting inside the critical section means a drain
// that samples after this pause-consistent point sees the frame. Caller
// holds fmu.
func (n *Node) forwardUnlock(tp *topology, owner string, part int, f broker.ForwardFrame) {
	n.addPending(part)
	n.fmu.Unlock()
	n.forwardedOut.Add(1)
	l := n.linkTo(owner, tp.addrs[owner])
	if l == nil {
		n.decPending(part)
		n.linkLost.Add(1)
		return
	}
	l.enqueue(part, f)
}

func (n *Node) addPending(part int) {
	n.pendMu.Lock()
	n.fwdPending[part]++
	n.pendMu.Unlock()
}

func (n *Node) decPending(part int) {
	n.pendMu.Lock()
	n.fwdPending[part]--
	n.pendMu.Unlock()
}

// pendingForParts sums the in-flight forward counts for a partition set.
func (n *Node) pendingForParts(parts map[int]bool) int {
	n.pendMu.Lock()
	defer n.pendMu.Unlock()
	total := 0
	for p := range parts {
		total += n.fwdPending[p]
	}
	return total
}

// linkTo returns the supervised link to peer, creating one if needed
// (the link dials — and redials — on its own runner; creation never
// blocks on the network).
func (n *Node) linkTo(peer, addr string) *link {
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	if l := n.links[peer]; l != nil {
		return l
	}
	select {
	case <-n.done:
		return nil
	default:
	}
	l := newLink(n, peer, addr)
	n.links[peer] = l
	return l
}

// harvestLink detaches and stops the link to a crashed peer, returning
// every frame it still held (kept unacknowledged first, then queued, both
// in submission order) for redelivery to the partitions' new owners.
func (n *Node) harvestLink(peer string) []bufFrame {
	if l := n.detachLink(peer); l != nil {
		return l.harvest()
	}
	return nil
}

// redirect re-routes a frame whose link went away mid-flight through the
// forward hook, as if it had just been released here: buffered if its
// partition is paused, forwarded to the partition's owner, or submitted
// locally if this node owns it now. Only a node that is itself shutting
// down drops the frame. This is what turns the old "closing a link
// settles its queue as lost" into a requeue to the partition's new owner.
func (n *Node) redirect(part int, f broker.ForwardFrame) {
	n.decPending(part)
	select {
	case <-n.done:
		n.linkLost.Add(1)
		return
	default:
	}
	if !n.forwardHook(f) {
		n.b.Submit(f.Topic, f.Payload, f.QoS)
	}
}

// currentEpoch reads the installed topology's fencing epoch.
func (n *Node) currentEpoch() uint64 {
	n.fmu.Lock()
	defer n.fmu.Unlock()
	if n.topo == nil {
		return 0
	}
	return n.topo.epoch
}

// probeLoop pings the peer of every link once per interval, so an idle
// link still hears from a live peer (see link.silence).
func (n *Node) probeLoop(interval time.Duration) {
	defer n.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
			for _, l := range n.linkSnapshot() {
				l.probe()
			}
		}
	}
}

// linkSilence reports how long this node's own link to peer has heard
// nothing, and whether this node may testify about peer at all: only a
// running node with a link to peer may. A killed node has closed its
// links, so a corpse never counts against the living.
func (n *Node) linkSilence(peer string, now time.Time) (time.Duration, bool) {
	select {
	case <-n.done:
		return 0, false
	default:
	}
	n.linkMu.Lock()
	l := n.links[peer]
	n.linkMu.Unlock()
	if l == nil {
		return 0, false
	}
	return l.silence(now), true
}

// demote runs once, when a peer's membership gate fences this node out:
// the cluster has moved on without it, so it closes down — local clients
// get broker disconnects and fail over to surviving nodes — and reports
// itself, to rejoin (if the operator wants) via Join as a new member.
func (n *Node) demote() {
	if !n.demoted.CompareAndSwap(false, true) {
		return
	}
	n.c.logf("cluster: %s: demoted (fenced out of membership at epoch %d); closing for rejoin via Join", n.id, n.currentEpoch())
	n.close()
	n.c.noteDemoted(n.id)
}

// linkHealth snapshots per-peer link supervision state and silence, for
// stats.
func (n *Node) linkHealth(suspectAfter time.Duration) []LinkHealth {
	links := map[string]*link{}
	n.linkMu.Lock()
	for peer, l := range n.links {
		links[peer] = l
	}
	n.linkMu.Unlock()
	now := time.Now()
	out := make([]LinkHealth, 0, len(links))
	for peer, l := range links {
		state, redials, epoch := l.health()
		silence := l.silence(now)
		out = append(out, LinkHealth{
			Peer:               peer,
			State:              state,
			Suspect:            suspectAfter > 0 && silence > suspectAfter,
			Redials:            redials,
			LastHeartbeatAgeMs: silence.Milliseconds(),
			Epoch:              epoch,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// dropLink tears down the link to a departed peer.
func (n *Node) dropLink(peer string) {
	if l := n.detachLink(peer); l != nil {
		l.close()
	}
}

// detachLink removes the link to peer from the node, returning it.
func (n *Node) detachLink(peer string) *link {
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	l := n.links[peer]
	delete(n.links, peer)
	return l
}

func (n *Node) linkSnapshot() []*link {
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	ls := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		ls = append(ls, l)
	}
	return ls
}

// filterSnapshot lists the filters a freshly dialed link must subscribe.
func (n *Node) filterSnapshot() []string {
	n.filterMu.Lock()
	defer n.filterMu.Unlock()
	fs := make([]string, 0, len(n.filters))
	for f := range n.filters {
		fs = append(fs, f)
	}
	return fs
}

// onSubscribe / onUnsubscribe are the broker hooks; they enqueue to the
// propagation worker so the broker's shard path never waits on a peer.
func (n *Node) onSubscribe(filter string) {
	select {
	case n.subCh <- subChange{filter: filter, add: true}:
	case <-n.done:
	}
}

func (n *Node) onUnsubscribe(filter string) {
	select {
	case n.subCh <- subChange{filter: filter, add: false}:
	case <-n.done:
	}
}

func (n *Node) subWorker() {
	defer n.wg.Done()
	for {
		select {
		case <-n.done:
			return
		case ch := <-n.subCh:
			if ch.sync != nil {
				close(ch.sync)
				continue
			}
			n.applySubChange(ch)
		}
	}
}

// syncSubs blocks until every filter change enqueued before the call has
// been propagated to the node's peer links.
func (n *Node) syncSubs() {
	ch := make(chan struct{})
	select {
	case n.subCh <- subChange{sync: ch}:
	case <-n.done:
		return
	}
	select {
	case <-ch:
	case <-n.done:
	}
}

// applySubChange propagates a refcount edge (0->1 subscribe, 1->0
// unsubscribe) to every live peer link. Shared-group filters never reach
// here (the broker hook reports individual filters only): a consumer
// group is expected to keep a member per node instead — see
// translate.Config.ClusterAddrs.
func (n *Node) applySubChange(ch subChange) {
	n.filterMu.Lock()
	if ch.add {
		n.filters[ch.filter]++
		if n.filters[ch.filter] != 1 {
			n.filterMu.Unlock()
			return
		}
	} else {
		n.filters[ch.filter]--
		if n.filters[ch.filter] > 0 {
			n.filterMu.Unlock()
			return
		}
		delete(n.filters, ch.filter)
	}
	n.filterMu.Unlock()
	for _, l := range n.linkSnapshot() {
		if ch.add {
			l.subscribe(ch.filter)
		} else {
			l.unsubscribe(ch.filter)
		}
	}
}

// pause marks partitions so frames released here are buffered instead of
// routed or forwarded.
func (n *Node) pause(moved map[int]bool) {
	n.fmu.Lock()
	for p := range moved {
		n.paused[p] = true
	}
	n.fmu.Unlock()
}

// takeBuffer extracts the node's entire migration buffer (all entries
// belong to paused — i.e. moved — partitions).
func (n *Node) takeBuffer() []bufFrame {
	n.fmu.Lock()
	buf := n.buf
	n.buf = nil
	n.fmu.Unlock()
	return buf
}

// prependBuffer puts handed-off frames (older than anything buffered
// locally) at the FRONT of the migration buffer, preserving their order.
func (n *Node) prependBuffer(frames []bufFrame) {
	if len(frames) == 0 {
		return
	}
	n.fmu.Lock()
	merged := make([]bufFrame, 0, len(frames)+len(n.buf))
	merged = append(merged, frames...)
	merged = append(merged, n.buf...)
	n.buf = merged
	n.fmu.Unlock()
}

// switchAndFlush installs the new topology, then drains the migration
// buffer through it frame by frame, oldest first — local partitions via
// Broker.Submit (synchronous, order-preserving), remote ones via the
// owner's link — until the buffer is empty, and finally unpauses the
// moved partitions atomically with the last emptiness check so no frame
// can slip between the flush and the resume.
func (n *Node) switchAndFlush(tp *topology, moved map[int]bool) {
	n.fmu.Lock()
	n.topo = tp
	for len(n.buf) > 0 {
		bf := n.buf[0]
		n.buf = n.buf[1:]
		n.migratedBuf.Add(1)
		if owner := tp.owner[bf.part]; owner != n.id {
			n.forwardUnlock(tp, owner, bf.part, bf.f)
		} else {
			n.fmu.Unlock()
			n.b.Submit(bf.f.Topic, bf.f.Payload, bf.f.QoS)
		}
		n.fmu.Lock()
	}
	n.buf = nil
	for p := range moved {
		delete(n.paused, p)
	}
	n.fmu.Unlock()
}

// close stops the propagation worker, tears down every link, and closes
// the broker (which disconnects local clients so they can redial a
// surviving node).
func (n *Node) close() {
	n.closeOnce.Do(func() { close(n.done) })
	n.wg.Wait()
	for _, l := range n.linkSnapshot() {
		l.close()
	}
	n.linkMu.Lock()
	n.links = map[string]*link{}
	n.linkMu.Unlock()
	n.b.Close()
}

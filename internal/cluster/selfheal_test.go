package cluster

import (
	"context"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/transport"
)

// newSelfHealCluster builds a cluster with an aggressive failure
// detector and fast link retries, so crash tests converge in tens of
// milliseconds instead of the production-default seconds. Its links dial
// through the returned cut.
func newSelfHealCluster(t *testing.T, nodes int, onDemoted func(string)) (*Cluster, *cut) {
	t.Helper()
	var cut cut
	// Takeover speed does not depend on the links' retransmission timer:
	// harvesting a dead link force-fails its in-flight frames by closing
	// the session.
	c, err := New(Config{
		Nodes:             nodes,
		Transport:         transport.WrapDial(transport.NewLoopback(), cut.wrap),
		DrainTimeout:      20 * time.Second,
		HeartbeatInterval: 50 * time.Millisecond,
		SuspectTimeout:    300 * time.Millisecond,
		OnDemoted:         onDemoted,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	return c, &cut
}

// cut is a one-way partition: once isolate names a node, every datagram
// a dialed conn sends to that node's broker is dropped. The node keeps
// running and its own links keep working, but its peers' links to it
// hear nothing back.
type cut struct{ addr atomic.Pointer[string] }

func (c *cut) isolate(n *Node) {
	addr := n.Addr()
	c.addr.Store(&addr)
}

func (c *cut) wrap(pc net.PacketConn) net.PacketConn { return cutConn{pc, c} }

type cutConn struct {
	net.PacketConn
	cut *cut
}

func (cc cutConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	if a := cc.cut.addr.Load(); a != nil && *a == addr.String() {
		return len(p), nil
	}
	return cc.PacketConn.WriteTo(p, addr)
}

// TestDetectorRemovesDeadNode: killing a node (SIGKILL semantics — no
// Leave, no drain) is noticed by the failure detector, which removes
// it and reassigns its partitions to the survivors, bumping the epoch.
func TestDetectorRemovesDeadNode(t *testing.T) {
	c, _ := newSelfHealCluster(t, 3, nil)
	epochBefore := c.Topology().Epoch

	if err := c.Kill("n2"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	waitFor(t, 10*time.Second, func() bool {
		ids := c.NodeIDs()
		return len(ids) == 2 && ids[0] == "n0" && ids[1] == "n1"
	})

	topo := c.Topology()
	if topo.Epoch <= epochBefore {
		t.Fatalf("epoch did not advance: %d -> %d", epochBefore, topo.Epoch)
	}
	for p, owner := range topo.Owners {
		if owner == "n2" {
			t.Fatalf("partition %d still owned by dead node", p)
		}
	}
	for _, st := range c.Stats() {
		if len(st.Partitions) == 0 {
			t.Fatalf("node %s owns no partitions after takeover", st.ID)
		}
		if st.Epoch != topo.Epoch {
			t.Fatalf("node %s at epoch %d, topology at %d", st.ID, st.Epoch, topo.Epoch)
		}
	}
}

// TestCrashTakeoverRedelivers: frames forwarded toward a broker that is
// already dead pile up in the link's retained/queued tables; crash
// takeover harvests them and redelivers to the partitions' new owners.
// The dead node never routed any of them (it was killed before the
// first publish), so the subscriber must see every frame exactly once,
// in per-topic order — the frames a pre-self-healing cluster counted
// as linkLost.
func TestCrashTakeoverRedelivers(t *testing.T) {
	c, _ := newSelfHealCluster(t, 3, nil)

	sub := dialNode(t, c, "n0", "sub")
	var mu sync.Mutex
	got := map[string][]int{}
	if err := sub.Subscribe("wf/+/rec", mqttsn.QoS2, func(topic string, payload []byte) {
		seq, _ := strconv.Atoi(string(payload))
		mu.Lock()
		got[topic] = append(got[topic], seq)
		mu.Unlock()
	}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	c.Node("n0").syncSubs()

	topics := topicsOwnedBy(c, "n2", 2, "wf")
	if len(topics) != 2 {
		t.Fatalf("topic generation failed: %v", topics)
	}

	// Kill the owner, then publish INTO the outage: n0 forwards toward
	// the corpse, the link retains, the detector fires, takeover
	// redelivers.
	if err := c.Kill("n2"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	const perTopic = 30
	pub := dialNode(t, c, "n0", "pub")
	for seq := 0; seq < perTopic; seq++ {
		for _, tp := range topics {
			if err := pub.Publish(tp, []byte(strconv.Itoa(seq)), mqttsn.QoS2); err != nil {
				t.Fatalf("publish %s seq %d: %v", tp, seq, err)
			}
		}
	}

	want := len(topics) * perTopic
	waitFor(t, 30*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, seqs := range got {
			total += len(seqs)
		}
		return total >= want
	})
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, seqs := range got {
		total += len(seqs)
	}
	if total != want {
		t.Fatalf("received %d frames, want exactly %d (duplicate or loss)", total, want)
	}
	for _, tp := range topics {
		assertSequence(t, tp, [][]int{got[tp]}, perTopic)
	}

	redelivered := uint64(0)
	for _, st := range c.Stats() {
		redelivered += st.TakeoverRedelivered
		if st.LinkLost != 0 {
			t.Fatalf("node %s counted %d frames lost; takeover should redeliver them", st.ID, st.LinkLost)
		}
	}
	if redelivered == 0 {
		t.Fatal("no frames went through takeover redelivery")
	}
}

// TestZombieFencedAndRejoins: a node its peers stop hearing from (but
// that keeps running) is removed by the detector; when it tries to keep
// forwarding,
// the survivors' membership gates refuse its bridge sessions, and the
// zombie demotes itself. A subsequent Join brings a fresh node in with
// no partition owned by two nodes at any point.
func TestZombieFencedAndRejoins(t *testing.T) {
	demoted := make(chan string, 1)
	c, cut := newSelfHealCluster(t, 3, func(id string) { demoted <- id })

	cut.isolate(c.Node("n2"))

	waitFor(t, 10*time.Second, func() bool { return len(c.NodeIDs()) == 2 })

	// The survivors fenced its established sessions at Remove; its link
	// supervisors redial, get RejectedInvalidID, and the node demotes.
	select {
	case id := <-demoted:
		if id != "n2" {
			t.Fatalf("demoted %q, want n2", id)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("zombie never demoted itself")
	}
	refused := uint64(0)
	for _, st := range c.Stats() {
		refused += st.EpochRefused
	}
	if refused == 0 {
		t.Fatal("no bridge connect was refused by the membership gate")
	}

	// Rejoin as a fresh member and verify single ownership end to end.
	id, err := c.Join(context.Background())
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	members := map[string]bool{}
	for _, m := range c.NodeIDs() {
		members[m] = true
	}
	if !members[id] || len(members) != 3 {
		t.Fatalf("membership after rejoin: %v", c.NodeIDs())
	}
	topo := c.Topology()
	for p, owner := range topo.Owners {
		if !members[owner] {
			t.Fatalf("partition %d owned by non-member %q", p, owner)
		}
	}

	// The healed cluster still forwards: a frame published on n0 for a
	// topic the joiner owns arrives at an n0 subscriber.
	sub := dialNode(t, c, "n0", "sub")
	gotCh := make(chan string, 1)
	if err := sub.Subscribe("wf/+/rec", mqttsn.QoS2, func(topic string, payload []byte) {
		gotCh <- string(payload)
	}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	c.Node("n0").syncSubs()
	topics := topicsOwnedBy(c, id, 1, "wf")
	if len(topics) != 1 {
		t.Fatalf("topic generation failed: %v", topics)
	}
	pub := dialNode(t, c, "n0", "pub")
	if err := pub.Publish(topics[0], []byte("healed"), mqttsn.QoS2); err != nil {
		t.Fatalf("publish: %v", err)
	}
	select {
	case p := <-gotCh:
		if p != "healed" {
			t.Fatalf("got %q", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frame never delivered through rejoined cluster")
	}
}

// TestLinkHealthStats: the per-peer link supervision state is surfaced
// in NodeStats, flips to suspect when a peer goes silent, and counts
// redials after a session loss.
func TestLinkHealthStats(t *testing.T) {
	c, cut := newSelfHealCluster(t, 3, nil)

	waitFor(t, 10*time.Second, func() bool {
		for _, st := range c.Stats() {
			if len(st.Links) != 2 {
				return false
			}
			for _, lh := range st.Links {
				if lh.State != LinkConnected || lh.LastHeartbeatAgeMs < 0 {
					return false
				}
			}
		}
		return true
	})

	// Cut one node off from its peers' links: they must mark the link
	// suspect (the detector will then remove it; both observations are
	// valid here).
	cut.isolate(c.Node("n2"))
	waitFor(t, 10*time.Second, func() bool {
		for _, st := range c.Stats() {
			if st.ID == "n2" {
				continue
			}
			for _, lh := range st.Links {
				if lh.Peer == "n2" && lh.Suspect {
					return true
				}
			}
		}
		return len(c.NodeIDs()) == 2 // detector already acted
	})
}

// TestIdleClusterKeepsMembers: with no traffic at all, the probes alone
// keep every link hearing its peer, so over ten suspicion timeouts no
// node is removed and no link goes down or silent.
func TestIdleClusterKeepsMembers(t *testing.T) {
	c, _ := newSelfHealCluster(t, 3, nil)
	suspect := c.cfg.SuspectTimeout
	deadline := time.Now().Add(10 * suspect)
	for time.Now().Before(deadline) {
		if ids := c.NodeIDs(); len(ids) != 3 {
			t.Fatalf("members %v after %v idle", ids, time.Until(deadline))
		}
		for _, st := range c.Stats() {
			if len(st.Links) != 2 {
				t.Fatalf("node %s has %d links, want 2", st.ID, len(st.Links))
			}
			for _, lh := range st.Links {
				if lh.State != LinkConnected || lh.Suspect || lh.LastHeartbeatAgeMs >= suspect.Milliseconds() {
					t.Fatalf("node %s link to %s: %+v", st.ID, lh.Peer, lh)
				}
			}
		}
		time.Sleep(suspect / 10)
	}
}

package cluster

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/transport"
)

// TestRendezvousMinimalMovement pins the property migration relies on:
// adding a member only moves partitions TO it, removing one only moves
// the partitions it owned.
func TestRendezvousMinimalMovement(t *testing.T) {
	const parts = 256
	three := rendezvousOwners(parts, []string{"n0", "n1", "n2"})
	four := rendezvousOwners(parts, []string{"n0", "n1", "n2", "n3"})
	joined := 0
	for p := range three {
		if three[p] != four[p] {
			if four[p] != "n3" {
				t.Fatalf("partition %d moved %s->%s on join of n3", p, three[p], four[p])
			}
			joined++
		}
	}
	if joined == 0 {
		t.Fatal("n3 took no partitions")
	}
	two := rendezvousOwners(parts, []string{"n0", "n1"})
	for p := range three {
		if three[p] != two[p] && three[p] != "n2" {
			t.Fatalf("partition %d moved %s->%s on leave of n2", p, three[p], two[p])
		}
	}
}

func newTestCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := New(Config{
		Nodes:        nodes,
		Transport:    transport.NewLoopback(),
		DrainTimeout: 20 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func dialNode(t *testing.T, c *Cluster, id, clientID string) *mqttsn.Client {
	t.Helper()
	n := c.Node(id)
	if n == nil {
		t.Fatalf("no node %q", id)
	}
	mc, err := mqttsn.NewClient(mqttsn.ClientConfig{
		ClientID:  clientID,
		Gateway:   n.Addr(),
		Transport: c.tr,
	})
	if err != nil {
		t.Fatalf("client %s: %v", clientID, err)
	}
	t.Cleanup(mc.Close)
	if err := mc.Connect(); err != nil {
		t.Fatalf("connect %s: %v", clientID, err)
	}
	return mc
}

// topicsOwnedBy generates topic names under prefix until want of them
// land in partitions owned by node id (ownership is deterministic).
func topicsOwnedBy(c *Cluster, id string, want int, prefix string) []string {
	topo := c.Topology()
	var out []string
	for i := 0; len(out) < want && i < 100000; i++ {
		topic := fmt.Sprintf("%s/t%d/rec", prefix, i)
		if topo.Owners[PartitionOf(topic, topo.Partitions)] == id {
			out = append(out, topic)
		}
	}
	return out
}

// TestSingleNodePassthrough: a one-node cluster is today's broker — no
// forwarding, no links, plain pub/sub.
func TestSingleNodePassthrough(t *testing.T) {
	c := newTestCluster(t, 1)
	sub := dialNode(t, c, "n0", "sub")
	got := make(chan string, 8)
	if err := sub.Subscribe("wf/+/rec", mqttsn.QoS2, func(topic string, payload []byte) {
		got <- string(payload)
	}); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	pub := dialNode(t, c, "n0", "pub")
	if err := pub.Publish("wf/a/rec", []byte("x"), mqttsn.QoS2); err != nil {
		t.Fatalf("publish: %v", err)
	}
	select {
	case p := <-got:
		if p != "x" {
			t.Fatalf("got %q", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
	st := c.Stats()
	if len(st) != 1 || st[0].ForwardedOut != 0 || st[0].Broker.Forwarded != 0 {
		t.Fatalf("single node forwarded frames: %+v", st)
	}
	if got := len(st[0].Partitions); got != c.cfg.Partitions {
		t.Fatalf("single node owns %d/%d partitions", got, c.cfg.Partitions)
	}
}

// TestForwardAndPropagate: a subscriber on one node receives, in order,
// frames published on every node, whichever node owns the topic.
func TestForwardAndPropagate(t *testing.T) {
	c := newTestCluster(t, 3)
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
	// Wait until n0's filter has reached its peer links.
	c.Node("n0").syncSubs()

	// Two topics owned by each node, published from every node.
	const perTopic = 20
	var topics []string
	for _, id := range c.NodeIDs() {
		topics = append(topics, topicsOwnedBy(c, id, 2, "wf")...)
	}
	if len(topics) != 6 {
		t.Fatalf("topic generation failed: %v", topics)
	}
	// Each node publishes the NEXT node's topics, so every frame crosses
	// a forwarding link to its owner.
	var wg sync.WaitGroup
	ids := c.NodeIDs()
	for i, id := range ids {
		pub := dialNode(t, c, id, "pub"+id)
		j := (i + 1) % len(ids)
		topic := topics[j*2 : j*2+2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq < perTopic; seq++ {
				for _, tp := range topic {
					if err := pub.Publish(tp, []byte(strconv.Itoa(seq)), mqttsn.QoS2); err != nil {
						t.Errorf("publish %s: %v", tp, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	waitFor(t, 30*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, seqs := range got {
			total += len(seqs)
		}
		return total >= len(topics)*perTopic
	})
	mu.Lock()
	defer mu.Unlock()
	for _, tp := range topics {
		assertSequence(t, tp, [][]int{got[tp]}, perTopic)
	}
	forwarded := uint64(0)
	for _, st := range c.Stats() {
		forwarded += st.ForwardedOut
	}
	if forwarded == 0 {
		t.Fatal("no frames were forwarded between nodes")
	}
}

// TestLeaveMigratesLive is the exactly-once/ordering test the issue
// demands: a consumer group with a member per node keeps receiving while
// a node owning live topics leaves; every frame arrives exactly once and
// per-topic order holds across the handoff.
func TestLeaveMigratesLive(t *testing.T) {
	c := newTestCluster(t, 3)

	// One group member per node, mirroring the cluster-aware translator.
	type rec struct {
		topic string
		seq   int
	}
	var mu sync.Mutex
	perMember := map[string][]rec{}
	for _, id := range c.NodeIDs() {
		id := id
		mem := dialNode(t, c, id, "mem-"+id)
		err := mem.Subscribe("$share/g/wf/+/rec", mqttsn.QoS2, func(topic string, payload []byte) {
			seq, _ := strconv.Atoi(string(payload))
			mu.Lock()
			perMember[id] = append(perMember[id], rec{topic, seq})
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("member %s subscribe: %v", id, err)
		}
	}

	// Two topics owned by each node; all published from surviving nodes.
	const perTopic = 40
	var topics []string
	for _, id := range c.NodeIDs() {
		topics = append(topics, topicsOwnedBy(c, id, 2, "wf")...)
	}
	pub0 := dialNode(t, c, "n0", "pub0")
	pub1 := dialNode(t, c, "n1", "pub1")

	phase := make(chan struct{}) // closed once a third of the stream is out
	var once sync.Once
	var wg sync.WaitGroup
	publish := func(pub *mqttsn.Client, topic []string) {
		defer wg.Done()
		for seq := 0; seq < perTopic; seq++ {
			for _, tp := range topic {
				if err := pub.Publish(tp, []byte(strconv.Itoa(seq)), mqttsn.QoS2); err != nil {
					t.Errorf("publish %s seq %d: %v", tp, seq, err)
					return
				}
			}
			if seq == perTopic/3 {
				once.Do(func() { close(phase) })
			}
		}
	}
	wg.Add(2)
	go publish(pub0, topics[:3])
	go publish(pub1, topics[3:])

	// Mid-stream, the node owning a third of the topics leaves.
	<-phase
	if err := c.Leave(context.Background(), "n2"); err != nil {
		t.Fatalf("leave: %v", err)
	}
	wg.Wait()

	want := len(topics) * perTopic
	waitFor(t, 60*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, rs := range perMember {
			total += len(rs)
		}
		return total >= want
	})

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, rs := range perMember {
		total += len(rs)
	}
	if total != want {
		t.Fatalf("received %d frames, want exactly %d (duplicate or loss)", total, want)
	}
	for _, tp := range topics {
		var lists [][]int
		for _, id := range []string{"n0", "n1", "n2"} {
			var seqs []int
			for _, r := range perMember[id] {
				if r.topic == tp {
					seqs = append(seqs, r.seq)
				}
			}
			if len(seqs) > 0 {
				lists = append(lists, seqs)
			}
		}
		assertSequence(t, tp, lists, perTopic)
	}
	if got := len(c.NodeIDs()); got != 2 {
		t.Fatalf("membership after leave: %v", c.NodeIDs())
	}
	for _, st := range c.Stats() {
		if len(st.Partitions) == 0 {
			t.Fatalf("node %s owns no partitions after rebalance", st.ID)
		}
	}
}

// TestJoinMigratesLive: a node joins mid-stream, takes partitions, and
// the individually-subscribed consumer sees every frame in order.
func TestJoinMigratesLive(t *testing.T) {
	c := newTestCluster(t, 2)
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

	const perTopic = 40
	topics := append(topicsOwnedBy(c, "n0", 2, "wf"), topicsOwnedBy(c, "n1", 2, "wf")...)
	pub := dialNode(t, c, "n1", "pub")
	phase := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := 0; seq < perTopic; seq++ {
			for _, tp := range topics {
				if err := pub.Publish(tp, []byte(strconv.Itoa(seq)), mqttsn.QoS2); err != nil {
					t.Errorf("publish %s seq %d: %v", tp, seq, err)
					return
				}
			}
			if seq == perTopic/3 {
				close(phase)
			}
		}
	}()

	<-phase
	joined, err := c.Join(context.Background())
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	wg.Wait()

	want := len(topics) * perTopic
	waitFor(t, 60*time.Second, func() bool {
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
	for _, tp := range topics {
		assertSequence(t, tp, [][]int{got[tp]}, perTopic)
	}
	if n := c.Node(joined); n == nil {
		t.Fatalf("joined node %q not a member", joined)
	}
	ownedByNew := 0
	topo := c.Topology()
	for _, o := range topo.Owners {
		if o == joined {
			ownedByNew++
		}
	}
	if ownedByNew == 0 {
		t.Fatal("joined node owns no partitions")
	}
}

// assertSequence checks that the per-receiver sequence lists for one
// topic, ordered by their first element, concatenate to exactly
// 0..perTopic-1: no loss, no duplicate, no reordering. A topic's frames
// may arrive at up to two receivers (before/after a migration); within
// each receiver order is strict.
func assertSequence(t *testing.T, topic string, lists [][]int, perTopic int) {
	t.Helper()
	var nonEmpty [][]int
	for _, l := range lists {
		if len(l) > 0 {
			nonEmpty = append(nonEmpty, l)
		}
	}
	sort.Slice(nonEmpty, func(i, j int) bool { return nonEmpty[i][0] < nonEmpty[j][0] })
	var all []int
	for _, l := range nonEmpty {
		all = append(all, l...)
	}
	if len(all) != perTopic {
		t.Fatalf("topic %s: got %d frames, want %d: %v", topic, len(all), perTopic, summarize(all))
	}
	for i, seq := range all {
		if seq != i {
			t.Fatalf("topic %s: position %d has seq %d (lists %v)", topic, i, seq, summarize(all))
		}
	}
}

func summarize(seqs []int) string {
	if len(seqs) <= 20 {
		return fmt.Sprint(seqs)
	}
	return fmt.Sprintf("%v...%v (%d total)", seqs[:10], seqs[len(seqs)-10:], len(seqs))
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met before deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStatsShape sanity-checks the ownership table and counters the
// broker binary's stats endpoint serves.
func TestStatsShape(t *testing.T) {
	c := newTestCluster(t, 2)
	topo := c.Topology()
	if topo.Partitions != 64 || len(topo.Owners) != 64 {
		t.Fatalf("topology: %+v", topo)
	}
	seen := map[string]bool{}
	for _, o := range topo.Owners {
		seen[o] = true
	}
	if !seen["n0"] || !seen["n1"] {
		t.Fatalf("owners missing a node: %v", seen)
	}
	for _, st := range c.Stats() {
		if st.Addr == "" || !strings.HasPrefix(st.ID, "n") {
			t.Fatalf("stats entry: %+v", st)
		}
	}
}

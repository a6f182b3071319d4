package cluster

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/chaos"
	"github.com/provlight/provlight/internal/mqttsn"
	"github.com/provlight/provlight/internal/transport"
)

// TestLinkReplaysAfterOutage: a burst released while the link's
// transport is partitioned stays on the link, which gives up its session
// and redials; once the partition heals the next session re-sends it, and
// every frame reaches a QoS 2 subscriber on the owner once, in send order,
// with none lost.
func TestLinkReplaysAfterOutage(t *testing.T) {
	lb := transport.NewLoopback()
	fault := chaos.NewFault(1)
	c, err := New(Config{
		Nodes:             2,
		Transport:         fault.Transport(lb), // the links dial through the fault
		RetryInterval:     50 * time.Millisecond,
		MaxRetries:        3,
		HeartbeatInterval: -1, // a partitioned peer must not be removed
		DrainTimeout:      20 * time.Second,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	dial := func(node, clientID string) *mqttsn.Client {
		mc, err := mqttsn.NewClient(mqttsn.ClientConfig{
			ClientID:      clientID,
			Gateway:       c.Node(node).Addr(),
			Transport:     lb, // devices are not partitioned
			RetryInterval: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mc.Close)
		if err := mc.Connect(); err != nil {
			t.Fatal(err)
		}
		return mc
	}

	var mu sync.Mutex
	got := map[string][]int{}
	sub := dial("n0", "sub")
	if err := sub.Subscribe("wf/+/rec", mqttsn.QoS2, func(topic string, payload []byte) {
		seq, _ := strconv.Atoi(string(payload))
		mu.Lock()
		got[topic] = append(got[topic], seq)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	c.Node("n0").syncSubs()
	topics := topicsOwnedBy(c, "n0", 2, "wf")
	pub := dial("n1", "pub")
	c.Node("n1").linkMu.Lock()
	l := c.Node("n1").links["n0"]
	c.Node("n1").linkMu.Unlock()

	fault.Partition()
	// More frames than the link's window, so the outage leaves frames both
	// sent and queued.
	const perTopic = 60
	for seq := 0; seq < perTopic; seq++ {
		for _, tp := range topics {
			if err := pub.Publish(tp, []byte(strconv.Itoa(seq)), mqttsn.QoS2); err != nil {
				t.Fatalf("publish %s: %v", tp, err)
			}
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		state, _, _ := l.health()
		return state == LinkDown
	})
	mu.Lock()
	early := len(got)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("frames reached the owner through a partition: %v", got)
	}
	fault.Heal()

	waitFor(t, 30*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		total := 0
		for _, seqs := range got {
			total += len(seqs)
		}
		return total >= len(topics)*perTopic
	})
	time.Sleep(100 * time.Millisecond) // let a duplicate show
	mu.Lock()
	for _, tp := range topics {
		assertSequence(t, tp, [][]int{got[tp]}, perTopic)
	}
	mu.Unlock()
	if _, redials, _ := l.health(); redials == 0 {
		t.Error("the link never redialed")
	}
	for _, st := range c.Stats() {
		if st.LinkLost != 0 {
			t.Errorf("node %s lost %d forwarded frames", st.ID, st.LinkLost)
		}
	}
}

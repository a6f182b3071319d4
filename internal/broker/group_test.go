package broker

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/mqttsn"
)

// memberRecorder is one consumer-group member recording every payload it
// receives, in arrival order.
type memberRecorder struct {
	c  *mqttsn.Client
	mu sync.Mutex
	by map[string][]string // topic -> payloads in arrival order
}

func newMember(t *testing.T, b *Broker, id, filter string, qos mqttsn.QoS) *memberRecorder {
	t.Helper()
	m := &memberRecorder{c: newTestClient(t, b, id), by: map[string][]string{}}
	if err := m.c.Subscribe(filter, qos, func(topic string, payload []byte) {
		m.mu.Lock()
		m.by[topic] = append(m.by[topic], string(payload))
		m.mu.Unlock()
	}); err != nil {
		t.Fatalf("subscribe %s: %v", id, err)
	}
	return m
}

func (m *memberRecorder) total() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, msgs := range m.by {
		n += len(msgs)
	}
	return n
}

// TestSharedSubscriptionPartitioning pins the consumer-group contract:
// across a stable group, every QoS 2 publish is delivered exactly once to
// exactly one member, all frames of one topic (one workflow) land on the
// same member, and each topic's frames arrive in publish order.
func TestSharedSubscriptionPartitioning(t *testing.T) {
	b := newTestBroker(t)
	const members = 3
	const topics = 8
	const perTopic = 10
	var ms []*memberRecorder
	for i := 0; i < members; i++ {
		ms = append(ms, newMember(t, b, fmt.Sprintf("member-%d", i), "$share/grp/wf/+/records", mqttsn.QoS2))
	}

	var wg sync.WaitGroup
	for w := 0; w < topics; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pub := newTestClient(t, b, fmt.Sprintf("wf-pub-%d", w))
			topic := fmt.Sprintf("wf/%d/records", w)
			for i := 0; i < perTopic; i++ {
				if err := pub.Publish(topic, []byte(fmt.Sprintf("%d", i)), mqttsn.QoS2); err != nil {
					t.Errorf("publish %s #%d: %v", topic, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	want := topics * perTopic
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := 0
		for _, m := range ms {
			got += m.total()
		}
		if got >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("group received %d/%d messages", got, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Exactly once across the group, affine and ordered per topic.
	seenOn := map[string]int{}
	for mi, m := range ms {
		m.mu.Lock()
		for topic, msgs := range m.by {
			if prev, dup := seenOn[topic]; dup {
				t.Errorf("topic %s delivered to members %d and %d; affinity violated", topic, prev, mi)
			}
			seenOn[topic] = mi
			if len(msgs) != perTopic {
				t.Errorf("member %d got %d/%d frames of %s", mi, len(msgs), perTopic, topic)
			}
			for i, got := range msgs {
				if got != fmt.Sprintf("%d", i) {
					t.Errorf("member %d topic %s frame %d = %q; order violated", mi, topic, i, got)
					break
				}
			}
		}
		m.mu.Unlock()
	}
	if len(seenOn) != topics {
		t.Errorf("delivered topics = %d, want %d", len(seenOn), topics)
	}
	st := b.Stats()
	if st.Groups != 1 {
		t.Errorf("Stats.Groups = %d, want 1", st.Groups)
	}
	if st.DuplicatesDropped != 0 && st.MessagesRouted != uint64(want) {
		t.Logf("routed=%d dupdropped=%d", st.MessagesRouted, st.DuplicatesDropped)
	}
}

// TestGroupRebalanceReroutesBacklog kills a group member that stopped
// acknowledging and checks that its queued and in-flight frames are handed
// back to the group (GroupRerouted) instead of being dropped when given
// up, and that the survivor ends up with every frame.
func TestGroupRebalanceReroutesBacklog(t *testing.T) {
	t.Parallel() // waits out the dead member's keepalive expiry
	b, err := New(Config{
		Addr:       "127.0.0.1:0",
		SendWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)

	// The survivor subscribes normally through a live client.
	survivor := newMember(t, b, "survivor", "$share/grp/wf/+/records", mqttsn.QoS1)

	// The dying member joins the group through a raw socket, subscribes,
	// then goes silent: it will never REGACK or PUBACK, so everything the
	// broker routes to it must eventually be handed back to the group.
	raw, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	gw, _ := net.ResolveUDPAddr("udp", b.Addr())
	raw.WriteTo(mqttsn.Marshal(&mqttsn.Connect{Flags: mqttsn.Flags{CleanSession: true}, Duration: 1, ClientID: "deadman"}), gw)
	time.Sleep(100 * time.Millisecond)
	raw.WriteTo(mqttsn.Marshal(&mqttsn.Subscribe{Flags: mqttsn.Flags{QoS: mqttsn.QoS1}, MsgID: 1, TopicName: "$share/grp/wf/+/records"}), gw)
	time.Sleep(100 * time.Millisecond)
	if got := b.Stats().Sessions; got != 2 {
		t.Fatalf("sessions = %d, want 2 (survivor + deadman)", got)
	}

	// Publish on many topics so some hash to the dead member.
	pub := newTestClient(t, b, "pub-rb")
	const topics = 12
	for w := 0; w < topics; w++ {
		topic := fmt.Sprintf("wf/%d/records", w)
		for i := 0; i < 2; i++ {
			if err := pub.Publish(topic, []byte(fmt.Sprintf("%d", i)), mqttsn.QoS1); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Every frame must eventually reach the survivor: frames routed to the
	// dead member are re-routed when its keepalive (1 s) expires, well
	// before the 6 s give-up budget.
	want := topics * 2
	deadline := time.Now().Add(15 * time.Second)
	for survivor.total() < want {
		if time.Now().After(deadline) {
			st := b.Stats()
			t.Fatalf("survivor received %d/%d frames (stats %+v)", survivor.total(), want, st)
		}
		time.Sleep(50 * time.Millisecond)
	}
	st := b.Stats()
	if st.GroupRerouted == 0 {
		t.Errorf("GroupRerouted = 0, want > 0 (dead member's frames must be handed back)")
	}
	if st.DeliveryGiveUps != 0 {
		t.Errorf("DeliveryGiveUps = %d, want 0: group frames must be re-routed, not dropped", st.DeliveryGiveUps)
	}
}

// TestGiveUpAccountingForDeadSubscriber is the regression test for the
// backlog give-up accounting fix: frames given up at the 6 s budget for
// an unresponsive individual (non-group) subscriber must be counted in
// Stats.DeliveryGiveUps / BacklogDropped instead of vanishing silently.
func TestGiveUpAccountingForDeadSubscriber(t *testing.T) {
	t.Parallel()
	b, err := New(Config{
		Addr:       "127.0.0.1:0",
		SendWindow: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)

	// Raw silent subscriber with a long keepalive (so expiry doesn't race
	// the give-up path) on an exact topic (no REGISTER roundtrip needed:
	// subscribing to an exact topic installs its id).
	raw, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	gw, _ := net.ResolveUDPAddr("udp", b.Addr())
	raw.WriteTo(mqttsn.Marshal(&mqttsn.Connect{Flags: mqttsn.Flags{CleanSession: true}, Duration: 600, ClientID: "silent"}), gw)
	time.Sleep(100 * time.Millisecond)
	raw.WriteTo(mqttsn.Marshal(&mqttsn.Subscribe{Flags: mqttsn.Flags{QoS: mqttsn.QoS1}, MsgID: 1, TopicName: "giveup/t"}), gw)
	time.Sleep(100 * time.Millisecond)

	pub := newTestClient(t, b, "pub-gu")
	const n = 6
	for i := 0; i < n; i++ {
		if err := pub.Publish("giveup/t", []byte{byte(i)}, mqttsn.QoS1); err != nil {
			t.Fatal(err)
		}
	}
	// Two budgets: the window's frames, then the two queued behind them.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if st := b.Stats(); st.DeliveryGiveUps >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("DeliveryGiveUps = %d, want >= %d (stats %+v)", b.Stats().DeliveryGiveUps, n, b.Stats())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestJanitorChurnReleasesGroupState exercises the sweep path under
// member churn: sessions join the group, receive traffic, and die without
// disconnecting. Expiry must release group membership, pending QoS 2
// state, and backlogged frames — the group registry ends empty and the
// remaining member keeps consuming.
func TestJanitorChurnReleasesGroupState(t *testing.T) {
	t.Parallel() // waits out keepalive expiries
	b, err := New(Config{
		Addr:       "127.0.0.1:0",
		SendWindow: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)

	var received atomic.Int64
	stable := newTestClient(t, b, "stable-member")
	if err := stable.Subscribe("$share/churn/wf/+/records", mqttsn.QoS2, func(string, []byte) {
		received.Add(1)
	}); err != nil {
		t.Fatal(err)
	}

	pubDone := make(chan struct{})
	pub := newTestClient(t, b, "pub-churn")
	const total = 60
	go func() {
		defer close(pubDone)
		for i := 0; i < total; i++ {
			topic := fmt.Sprintf("wf/%d/records", i%6)
			if err := pub.Publish(topic, []byte{byte(i)}, mqttsn.QoS2); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Churn: short-keepalive members join and silently die mid-stream.
	for round := 0; round < 3; round++ {
		c, err := mqttsn.NewClient(mqttsn.ClientConfig{
			ClientID:     fmt.Sprintf("churn-%d", round),
			Gateway:      b.Addr(),
			KeepAlive:    time.Second,
			CleanSession: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Connect(); err != nil {
			t.Fatal(err)
		}
		if err := c.Subscribe("$share/churn/wf/+/records", mqttsn.QoS2, func(string, []byte) {}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(60 * time.Millisecond)
		c.Close() // no DISCONNECT: only keepalive expiry reclaims it
	}
	<-pubDone

	// All churned members must expire and leave the group; only the
	// stable member remains, so the group keeps exactly one member and
	// later frames keep flowing to it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		b.groupMu.RLock()
		g := b.groups[groupKey("churn", "wf/+/records")]
		memberCount := -1
		if g != nil {
			memberCount = len(g.members)
		}
		b.groupMu.RUnlock()
		if memberCount == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("group members = %d, want 1 after churn expiry", memberCount)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Membership may drop before the keepalive does (give-up eviction);
	// the sessions themselves must still be reclaimed by expiry.
	deadline = time.Now().Add(10 * time.Second)
	for b.Stats().SessionsExpired < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("SessionsExpired = %d, want >= 3", b.Stats().SessionsExpired)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Post-churn traffic still reaches the stable member.
	before := received.Load()
	if err := pub.Publish("wf/0/records", []byte("after"), mqttsn.QoS2); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for received.Load() <= before {
		if time.Now().After(deadline) {
			t.Fatal("stable member stopped receiving after churn")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Unsubscribe dissolves the group entirely — no leaked registry entry.
	if err := stable.Unsubscribe("$share/churn/wf/+/records"); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for {
		b.groupMu.RLock()
		_, exists := b.groups[groupKey("churn", "wf/+/records")]
		b.groupMu.RUnlock()
		if !exists {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("group registry entry leaked after last member left")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

package broker

import (
	"strings"

	"github.com/provlight/provlight/internal/mqttsn"
)

// Consumer groups (MQTT-SN shared subscriptions): a subscribe to
// "$share/<group>/<filter>" joins the consumer group (group, filter)
// instead of creating an individual subscription. The broker routes each
// message matching the filter to exactly ONE live member, chosen by a
// sticky partition assignment: a topic is assigned on first traffic to
// the member owning the fewest topics (equal-rate workflows spread
// evenly) and stays with that member while it lives, so a group of
// translator sessions splits the fan-in horizontally while one
// publisher's stream (one workflow's topic) stays on one member and
// keeps its order.
//
// Rebalance: a member's death (clean disconnect, keepalive expiry,
// reconnect replacement) or persistent unresponsiveness releases its
// partitions; survivors take them over lazily, least-loaded first.
// Frames queued or in flight to a dead member are handed back to the
// group (rerouted, in the dead member's send order) rather than dropped;
// frames a dead member received but never acknowledged may be delivered
// again to their new member, so delivery across a failover is
// at-least-once even at QoS 2 (exactly-once holds per member, and for
// the group while membership is stable).

// consumerGroup is one (group name, topic filter) consumer group. All
// fields are guarded by the broker's groupMu.
type consumerGroup struct {
	name   string
	filter string // inner filter ($share prefix stripped)
	// members in join order.
	members []groupMember
	// assign is the sticky partition table: topic -> owning member.
	// A topic is assigned on its first routed frame to the live member
	// owning the fewest topics (so equal-rate workflows spread evenly),
	// and stays put while its owner lives — that is the per-workflow
	// ordering guarantee. Only a dead member's topics are reassigned.
	assign map[string]*session
	// counts tracks how many topics each member owns, for least-loaded
	// assignment.
	counts map[*session]int
}

// groupMember is one session's membership, with its granted QoS.
type groupMember struct {
	s   *session
	qos mqttsn.QoS
}

// groupKey identifies a consumer group in the registry: the same group
// name with two different filters forms two independent groups (MQTT 5
// shared-subscription semantics).
func groupKey(name, filter string) string { return name + "\x00" + filter }

// joinGroup adds (or updates) s as a member of group (name, filter),
// creating the group on first join. It returns the group so the session
// can remember its memberships for teardown.
func (b *Broker) joinGroup(name, filter string, s *session, qos mqttsn.QoS) *consumerGroup {
	key := groupKey(name, filter)
	b.groupMu.Lock()
	defer b.groupMu.Unlock()
	g := b.groups[key]
	if g == nil {
		g = &consumerGroup{
			name: name, filter: filter,
			assign: map[string]*session{},
			counts: map[*session]int{},
		}
		b.groups[key] = g
	}
	for i := range g.members {
		if g.members[i].s == s {
			g.members[i].qos = qos // re-subscribe updates the granted QoS
			return g
		}
	}
	g.members = append(g.members, groupMember{s: s, qos: qos})
	g.counts[s] = 0
	return g
}

// leaveGroup removes s from g — releasing its partition assignments for
// lazy takeover by the survivors — and deletes the group when its last
// member leaves. It returns the number of remaining members.
func (b *Broker) leaveGroup(g *consumerGroup, s *session) int {
	b.groupMu.Lock()
	defer b.groupMu.Unlock()
	for i := range g.members {
		if g.members[i].s == s {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	for topic, owner := range g.assign {
		if owner == s {
			delete(g.assign, topic)
		}
	}
	delete(g.counts, s)
	n := len(g.members)
	if n == 0 {
		delete(b.groups, groupKey(g.name, g.filter))
	}
	return n
}

// groupTarget is one routing decision: deliver msg to member s at qos on
// behalf of group g.
type groupTarget struct {
	s   *session
	qos mqttsn.QoS
	g   *consumerGroup
}

// matchGroups returns, for every group whose filter matches topic, the
// member the topic is assigned to. The steady state (topic already
// assigned to a live owner) runs under the read lock; only first-seen
// topics and takeovers upgrade to the write lock. exclude skips a member
// (used when handing a dead member's frames back to the group).
func (b *Broker) matchGroups(topic string, exclude *session, out []groupTarget) []groupTarget {
	b.groupMu.RLock()
	var misses []*consumerGroup
	for _, g := range b.groups {
		if !mqttsn.TopicMatches(g.filter, topic) {
			continue
		}
		if m, ok := g.lookupAssigned(topic, exclude); ok {
			out = append(out, groupTarget{s: m.s, qos: m.qos, g: g})
		} else {
			misses = append(misses, g)
		}
	}
	b.groupMu.RUnlock()
	for _, g := range misses {
		b.groupMu.Lock()
		if m, ok := g.assignTopic(topic, exclude); ok {
			out = append(out, groupTarget{s: m.s, qos: m.qos, g: g})
		}
		b.groupMu.Unlock()
	}
	return out
}

// lookupAssigned resolves topic's owning member if it is assigned, live,
// and not excluded. Callers hold groupMu (read suffices).
func (g *consumerGroup) lookupAssigned(topic string, exclude *session) (groupMember, bool) {
	owner := g.assign[topic]
	if owner == nil || owner == exclude {
		return groupMember{}, false
	}
	for _, m := range g.members {
		if m.s == owner {
			return m, true
		}
	}
	return groupMember{}, false
}

// assignTopic resolves or creates topic's sticky assignment: the live,
// non-excluded member owning the fewest topics takes it. Callers hold
// groupMu for writing.
func (g *consumerGroup) assignTopic(topic string, exclude *session) (groupMember, bool) {
	if m, ok := g.lookupAssigned(topic, exclude); ok {
		return m, true // raced with a concurrent assignment
	}
	best := -1
	for i, m := range g.members {
		if m.s == exclude {
			continue
		}
		if best < 0 || g.counts[m.s] < g.counts[g.members[best].s] {
			best = i
		}
	}
	if best < 0 {
		return groupMember{}, false
	}
	m := g.members[best]
	if prev := g.assign[topic]; prev != nil {
		// Takeover from an excluded-but-live owner (an owner that died
		// has already been stripped by leaveGroup).
		if _, ok := g.counts[prev]; ok {
			g.counts[prev]--
		}
	}
	g.assign[topic] = m.s
	g.counts[m.s]++
	return m, true
}

// rerouteGroup hands a group-routed message back to its group after its
// member died or gave up on it, excluding that member. Ownership of msg
// transfers: it is either delivered to another member or released and
// counted as dropped. Must be called without any shard mutex held.
//
// The loop is bounded: every iteration whose pick fails the liveness
// check removes that member from the group (it is gone from its shard
// map, so it is definitively dead — several members can be in this state
// at once when a sweep expires them in one batch), so after at most
// len(members) iterations the frame is delivered or given up.
func (b *Broker) rerouteGroup(msg *message, from *session) {
	g := msg.group
	for {
		var pick [1]groupTarget
		targets := b.matchGroupOne(g, msg.topic, from, pick[:0])
		if len(targets) == 0 {
			b.ctr.deliveryGiveUps.Add(1)
			b.putMsg(msg)
			return
		}
		t := targets[0]
		if msg.qos > t.qos {
			msg.qos = t.qos
		}
		if b.deliver(t.s, msg) {
			b.ctr.groupRerouted.Add(1)
			return
		}
		// The picked member died between pick and deliver (deliver
		// returned ownership of msg): drop it from the group so it
		// cannot be picked again, then try the survivors.
		b.leaveGroup(g, t.s)
		from = t.s
	}
}

// settleUndeliverable settles a frame its subscriber will never take
// (MaxRetries spent, or a rejected/abandoned REGISTER): group frames are
// handed back to the group excluding that subscriber, the rest are
// dropped and counted. Must be called without any shard mutex held.
func (b *Broker) settleUndeliverable(s *session, msg *message) {
	if msg.group != nil {
		b.rerouteGroup(msg, s)
		return
	}
	b.ctr.deliveryGiveUps.Add(1)
	b.putMsg(msg)
}

// matchGroupOne is matchGroups for a single known group (the message
// already carries its group affiliation). It always takes the write lock:
// handoff reassigns the topic away from the failed member.
func (b *Broker) matchGroupOne(g *consumerGroup, topic string, exclude *session, out []groupTarget) []groupTarget {
	b.groupMu.Lock()
	defer b.groupMu.Unlock()
	if m, ok := g.assignTopic(topic, exclude); ok {
		out = append(out, groupTarget{s: m.s, qos: m.qos, g: g})
	}
	return out
}

// sessionRemains collects everything a dying session still owes: its
// QoS 1/2 backlog and in-flight frames (for group handoff or release),
// its group memberships (to leave), and its individual filters (so the
// OnUnsubscribe hook sees teardown like an explicit unsubscribe).
// Populated under the session's shard mutex, acted on after unlocking.
type sessionRemains struct {
	msgs    []*message // in send order: in flight, then queued
	groups  []*consumerGroup
	filters []string // individual filters of a non-bridge session
}

// collectRemainsLocked strips s of its undelivered frames and group
// memberships. Callers must hold the session's shard mutex; the returned
// remains must be settled with settleRemains after unlocking.
func (b *Broker) collectRemainsLocked(s *session) sessionRemains {
	var r sessionRemains
	r.msgs = s.detachLocked(func(*message) bool { return true }, nil)
	s.flows = nil // only REGISTERs are left
	s.sendQ = nil
	for _, g := range s.groupSubs {
		r.groups = append(r.groups, g)
	}
	s.groupSubs = nil
	if b.cfg.OnUnsubscribe != nil && !strings.HasPrefix(s.clientID, BridgeSessionPrefix) {
		for filter := range s.subs {
			r.filters = append(r.filters, filter)
		}
	}
	s.subs = map[string]mqttsn.QoS{}
	return r
}

// settleRemains leaves the dead session's groups, then re-routes its
// group-owned frames to surviving members and releases the rest. Must be
// called WITHOUT any shard mutex held (re-delivery locks other shards).
func (b *Broker) settleRemains(s *session, r sessionRemains) {
	for _, g := range r.groups {
		b.leaveGroup(g, s)
	}
	for _, filter := range r.filters {
		b.cfg.OnUnsubscribe(filter)
	}
	for _, m := range r.msgs {
		if m.group != nil {
			b.rerouteGroup(m, s)
		} else {
			b.ctr.backlogDropped.Add(1)
			b.putMsg(m)
		}
	}
}

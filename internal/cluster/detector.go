package cluster

import "time"

// Failure detection. Every inter-node link is an MQTT-SN session, and
// every packet a link hears from its peer — an ack, a propagated frame,
// the PINGRESP to the PINGREQ each node sends on each link every
// HeartbeatInterval — proves the peer alive. The detector sweeps at the
// same cadence and declares a member dead only when enough OTHER members'
// own links to it stayed silent past SuspectTimeout — min(2, members-1)
// confirmations — so one flaky link cannot evict a healthy node, while a
// two-node cluster can still heal on the lone survivor's word. Death
// triggers crash takeover (Remove): partitions reassign, retained link
// frames redeliver, and the gate fences the corpse in case it was a
// zombie all along.
//
// The probes ride the links that carry forwards, so they measure exactly
// the path forwards take, as a round trip: a peer that cannot answer its
// forwarders cannot look alive, and a migration pause, which only buffers
// frames, cannot make a healthy peer look dead.

// detector is the cluster's sweep loop; started by New when
// HeartbeatInterval > 0.
func (c *Cluster) detector() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		c.sweep()
	}
}

// sweep evaluates suspicion for every member and removes the confirmed
// dead. Holding c.mu the whole time serializes against Join/Leave, so
// membership cannot shift under a takeover.
func (c *Cluster) sweep() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	var dead []string
	for _, id := range c.order {
		confirm, eligible := 0, 0
		for _, oid := range c.order {
			if oid == id {
				continue
			}
			silence, ok := c.nodes[oid].linkSilence(id, now)
			if !ok {
				continue
			}
			eligible++
			if silence > c.cfg.SuspectTimeout {
				confirm++
			}
		}
		need := min(2, eligible)
		if need > 0 && confirm >= need {
			c.logf("cluster: detector: %s confirmed dead by %d/%d live peer(s)", id, confirm, eligible)
			dead = append(dead, id)
		}
	}
	for _, id := range dead {
		if err := c.removeLocked(id); err != nil {
			c.logf("cluster: detector: remove %s: %v", id, err)
		}
	}
}

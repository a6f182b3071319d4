package cluster

import (
	"strconv"
	"strings"

	"github.com/provlight/provlight/internal/broker"
	"github.com/provlight/provlight/internal/mqttsn"
)

// Membership fencing. Every membership change — Join, Leave, Remove —
// bumps a monotonic epoch carried by the topology snapshot. The epoch is
// stamped into every bridge session's client id ("!bridge/<node>@<epoch>"),
// so the question "is this forwarder a current member?" is answered at
// the door, by each node's broker, with no shared state beyond the
// membership snapshot:
//
//   - A CONNECT from a bridge id whose node is a member is admitted
//     (a slightly stale epoch is fine — the node converges on the next
//     install; what is fenced is membership, not staleness).
//   - A CONNECT from a bridge id whose node is NOT a member is refused
//     with RejectedInvalidID. When a node is Removed, its established
//     bridge sessions on every survivor are disconnected too, so the
//     refusal is immediate, not eventual.
//
// A fenced node therefore cannot land a single forward: its partitions'
// streams continue exclusively through the new owners, split-brain
// double-ownership cannot fork a topic, and the zombie — seeing
// RejectedInvalidID, a code no healthy member ever receives — demotes
// itself (closes its broker so local clients fail over) to rejoin via
// Join as a fresh member.

// bridgeClientID stamps a node's current epoch into its bridge session
// id. Epochs stay well under the 23-character MQTT-SN client id cap for
// any realistic membership-change count.
func bridgeClientID(nodeID string, epoch uint64) string {
	return broker.BridgeSessionPrefix + nodeID + "@" + strconv.FormatUint(epoch, 10)
}

// parseBridgeClientID recovers (node, epoch) from a bridge session id.
// Ids without an epoch suffix (pre-epoch peers) parse as epoch 0.
func parseBridgeClientID(clientID string) (nodeID string, epoch uint64, ok bool) {
	rest, ok := strings.CutPrefix(clientID, broker.BridgeSessionPrefix)
	if !ok || rest == "" {
		return "", 0, false
	}
	if at := strings.LastIndexByte(rest, '@'); at >= 0 {
		e, err := strconv.ParseUint(rest[at+1:], 10, 64)
		if err != nil || at == 0 {
			return "", 0, false
		}
		return rest[:at], e, true
	}
	return rest, 0, true
}

// connectGate builds the broker ConnectGate for one node: ordinary
// clients always pass; bridge sessions pass only while their node is in
// the current membership snapshot. Runs on the broker's shard path, so
// it reads the lock-free membership pointer — never cluster or node
// mutexes.
func (c *Cluster) connectGate(n *Node) func(string) mqttsn.ReturnCode {
	return func(clientID string) mqttsn.ReturnCode {
		if !strings.HasPrefix(clientID, broker.BridgeSessionPrefix) {
			return mqttsn.Accepted
		}
		peer, peerEpoch, ok := parseBridgeClientID(clientID)
		if ok && c.isMember(peer) {
			return mqttsn.Accepted
		}
		n.epochRefused.Add(1)
		c.logf("cluster: %s: refused bridge connect from %s (epoch %d): not a member at epoch %d",
			n.id, peer, peerEpoch, n.currentEpoch())
		return mqttsn.RejectedInvalidID
	}
}

// isMember consults the lock-free membership snapshot (see
// Cluster.members); safe from broker hook context.
func (c *Cluster) isMember(id string) bool {
	m := c.members.Load()
	if m == nil {
		return true // before the first install, nothing is fenced
	}
	return (*m)[id]
}

package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// PartitionOf maps a topic to its partition with a stable FNV-1a hash.
// The mapping depends only on (topic, partitions), never on membership,
// so every node computes the same partition for a frame without
// coordination, and a membership change moves partitions, not topics.
func PartitionOf(topic string, partitions int) int {
	h := fnv.New64a()
	h.Write([]byte(topic))
	return int(h.Sum64() % uint64(partitions))
}

// rendezvousScore is the highest-random-weight score of (node, partition).
// FNV alone avalanches poorly over the mostly-zero partition suffix (a
// handful of trailing-byte xors cannot reorder the per-node hashes, so
// one node would win every partition); the splitmix64 finalizer mixes
// every input bit into the high bits the comparison actually uses.
func rendezvousScore(nodeID string, partition int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(nodeID))
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(partition))
	h.Write(b[:])
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: full-avalanche over 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Owners previews the ownership table rendezvous hashing produces for a
// hypothetical membership: Owners(p, ids)[PartitionOf(topic, p)] is the
// node a frame on topic would be routed to. Capacity planning and the
// fan-in benchmark use it to reason about topic placement without
// starting brokers; the cluster itself computes the same table
// internally.
func Owners(partitions int, ids []string) []string {
	return rendezvousOwners(partitions, ids)
}

// rendezvousOwners assigns each partition to the member with the highest
// rendezvous score. The property that makes live migration cheap: adding
// a node only moves partitions TO it, removing a node only moves the
// partitions it owned — no unrelated partition changes hands, so the set
// of old owners and the set of new owners in any single join/leave are
// disjoint (the migration ordering protocol depends on this).
func rendezvousOwners(partitions int, ids []string) []string {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	owner := make([]string, partitions)
	for p := range owner {
		best, bestScore := "", uint64(0)
		for _, id := range sorted {
			if s := rendezvousScore(id, p); best == "" || s > bestScore {
				best, bestScore = id, s
			}
		}
		owner[p] = best
	}
	return owner
}

// topology is an immutable partition map snapshot: installed atomically
// per node under its forwarding mutex, never mutated in place.
type topology struct {
	partitions int
	owner      []string          // partition index -> owning node id
	addrs      map[string]string // node id -> broker listen address
	// epoch is the membership fencing token: monotonically bumped by
	// every Join/Leave/Remove and stamped into bridge client ids. A node
	// left behind by a Remove keeps its stale topology (and epoch) — that
	// staleness is what the survivors' connect gates refuse (see
	// epoch.go).
	epoch uint64
}

// ownedBy lists the partitions tp assigns to node id, in order.
func (tp *topology) ownedBy(id string) []int {
	var parts []int
	for p, o := range tp.owner {
		if o == id {
			parts = append(parts, p)
		}
	}
	return parts
}

// partsMatcher adapts a moved-partition set to the topic predicate the
// broker's drain introspection (PendingForTopics, DetachMatching) takes.
func partsMatcher(partitions int, parts map[int]bool) func(string) bool {
	return func(topic string) bool { return parts[PartitionOf(topic, partitions)] }
}

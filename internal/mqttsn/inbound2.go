package mqttsn

// Inbound2 is the inbound side of one end of a hop: the QoS 2 flows a
// receiver holds by msgID from the sender's first PUBLISH to its PUBREL,
// each holding a V. The broker's session and the Client both keep one.
// Like Flows it has no clock, lock or goroutine; the zero value is ready.
//
// It also keeps the msgIDs released last, so a PUBLISH retransmitted after
// its PUBREL (a late or duplicated datagram) is dropped as the duplicate
// it is instead of starting a second flow that a repeated PUBREL would
// deliver again.
//
// A sender may also abandon a flow without a PUBREL: it gives up after
// its retries whether it was waiting for PUBREC or for PUBCOMP, and
// reuses the msgID once its counter wraps. A stale entry would make the
// new PUBLISH look like a duplicate of the abandoned one. So an abandoned
// flow is dropped once the sender's counter has moved more than half the
// 16-bit msgID space past it. In serial-number arithmetic its msgID then
// looks ahead of the newest one. A live flow is never that far behind:
// its sender would have to use 32k msgIDs while still retrying it. Flows
// at most inbound2Reorder ahead are kept, since a reordered PUBLISH can
// arrive after a newer one. The check runs each time the newest msgID has
// moved inbound2ReapStep, so an abandoned msgID is dropped before the
// counter wraps round to it. Counting msgIDs, not time, decides, so the
// sender's retry timing need not be known.
type Inbound2[V any] struct {
	flows  map[uint16]V
	reaped uint16 // the newest fresh msgID at the last reap

	released [64]uint16 // the msgIDs released last, a ring
	releases uint64     // releases so far
}

const (
	inbound2Reorder  = 1 << 12
	inbound2ReapStep = 1 << 12
)

// Receive records the PUBLISH of msgID, holding v until its PUBREL, and
// reports whether it is fresh. A retransmission of a flow still held or
// released lately is not: it is not recorded, and the caller only
// acknowledges it again.
func (in *Inbound2[V]) Receive(msgID uint16, v V) bool {
	if _, held := in.flows[msgID]; held || in.releasedLately(msgID) {
		return false
	}
	if in.flows == nil {
		in.flows = map[uint16]V{}
	}
	in.flows[msgID] = v
	in.reap(msgID)
	return true
}

// Release ends the flow of msgID on its PUBREL and returns what it held.
// ok is false when no flow holds msgID: the PUBREL is a repeat.
func (in *Inbound2[V]) Release(msgID uint16) (v V, ok bool) {
	if v, ok = in.flows[msgID]; ok {
		delete(in.flows, msgID)
		in.released[in.releases%uint64(len(in.released))] = msgID
		in.releases++
	}
	return v, ok
}

func (in *Inbound2[V]) releasedLately(msgID uint16) bool {
	for _, id := range in.released[:min(in.releases, uint64(len(in.released)))] {
		if id == msgID {
			return true
		}
	}
	return false
}

// reap drops the abandoned flows, given the newest fresh msgID.
func (in *Inbound2[V]) reap(newest uint16) {
	if d := int16(newest - in.reaped); d < inbound2ReapStep && d > -inbound2ReapStep {
		return
	}
	in.reaped = newest
	for msgID := range in.flows {
		if int16(msgID-newest) > inbound2Reorder {
			delete(in.flows, msgID)
		}
	}
}

package mqttsn

// A receiver of QoS 2 PUBLISHes keeps each flow by msgID until the
// sender's PUBREL, and a sender may abandon a flow without one: it gives
// up after its retries whether it was waiting for PUBREC or for PUBCOMP,
// and reuses the msgID once its counter wraps. A stale entry would make
// the new PUBLISH look like a duplicate of the abandoned one.
//
// So an abandoned flow is dropped once the sender's counter has moved
// more than half the 16-bit msgID space past it. In serial-number
// arithmetic its msgID then looks ahead of the newest one. A live flow is
// never that far behind: its sender would have to use 32k msgIDs while
// still retrying it. Flows at most inbound2Reorder ahead are kept, since a
// reordered PUBLISH can arrive after a newer one. The check runs each time
// the newest msgID has moved inbound2ReapStep, so an abandoned msgID is
// dropped before the counter wraps round to it. Counting msgIDs, not
// time, decides, so the sender's retry timing need not be known.
const (
	inbound2Reorder  = 1 << 12
	inbound2ReapStep = 1 << 12
)

// ReapInbound2 drops the abandoned flows from a receiver's inbound QoS 2
// table, given the newest fresh msgID. *reaped holds the newest msgID at
// the last reap; ReapInbound2 updates it.
func ReapInbound2[V any](flows map[uint16]V, reaped *uint16, newest uint16) {
	if d := int16(newest - *reaped); d < inbound2ReapStep && d > -inbound2ReapStep {
		return
	}
	*reaped = newest
	for msgID := range flows {
		if int16(msgID-newest) > inbound2Reorder {
			delete(flows, msgID)
		}
	}
}

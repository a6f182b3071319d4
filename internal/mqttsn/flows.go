package mqttsn

import (
	"slices"
	"time"
)

// Flows is the outbound side of one end of a hop: every acknowledged
// exchange it has in flight (a QoS 1 or QoS 2 PUBLISH, or a CONNECT,
// REGISTER, SUBSCRIBE or UNSUBSCRIBE), in enqueue order, each holding the
// caller's P. The broker's session and the Client both drive one.
//
// Flows has no clock, socket, lock or goroutine: the caller passes the
// time, sends what it is told to send and holds its own mutex across
// every call. Slots move when one is removed, so a *Flow is valid only
// until the next change to the table; never keep one across an unlock.
type Flows[P any] struct {
	// RetryInterval is how long a flow's last packet may go unanswered
	// before Due re-sends it; MaxRetries bounds the re-sends.
	RetryInterval time.Duration
	MaxRetries    int

	slots []Flow[P]
	last  uint16 // the last msgID handed out
}

// Flow is one exchange in flight. Its state is the acknowledgement it
// awaits: PUBACK or PUBREC after a QoS 1 or QoS 2 PUBLISH, PUBCOMP after
// a PUBREL, or the request's own; and, for PUBREC, whether it came and
// the PUBREL is held back (see Releasable).
type Flow[P any] struct {
	MsgID   uint16
	Await   MsgType
	Payload P

	held     bool
	retries  int
	lastSent time.Time
}

// Step is what an acknowledgement did to the flow it named.
type Step uint8

const (
	Dropped   Step = iota // no flow awaits it: a duplicate, a late ack, or a wrong type
	Release               // a PUBREC held its flow: send the PUBRELs Releasable hands out
	Completed             // the flow ended and left the table
)

// PublishAwaits is the acknowledgement a PUBLISH at qos (1 or 2) awaits
// first.
func PublishAwaits(qos QoS) MsgType {
	if qos == QoS2 {
		return PUBREC
	}
	return PUBACK
}

// Add appends a flow awaiting await, its first packet sent at now, and
// returns it for the caller to fill in Payload. A CONNECT's flow
// (awaiting CONNACK) takes msgID 0; every other flow gets the next msgID
// after the last one handed out that is neither 0 nor held by a flow.
func (t *Flows[P]) Add(await MsgType, now time.Time) *Flow[P] {
	var id uint16
	if await != CONNACK {
		for {
			t.last++
			if t.last != 0 && t.Index(t.last) < 0 {
				break
			}
		}
		id = t.last
	}
	t.slots = append(t.slots, Flow[P]{MsgID: id, Await: await, lastSent: now})
	return &t.slots[len(t.slots)-1]
}

// Index returns the slot of the flow holding msgID, or -1.
func (t *Flows[P]) Index(msgID uint16) int {
	for i := range t.slots {
		if t.slots[i].MsgID == msgID {
			return i
		}
	}
	return -1
}

// Slots returns the flows in enqueue order. The caller may read them and
// change their Payload until the next change to the table.
func (t *Flows[P]) Slots() []Flow[P] { return t.slots }

// DeleteFunc removes every flow del selects, calling it on each flow in
// enqueue order.
func (t *Flows[P]) DeleteFunc(del func(Flow[P]) bool) {
	t.slots = slices.DeleteFunc(t.slots, del)
}

// Advance applies the acknowledgement typ of msgID, with return code
// code. A flow completes on the acknowledgement it awaits, or on a PUBACK
// refusing its PUBLISH at either QoS (a gateway refuses a PUBLISH that
// way); Advance then returns it, removed. Any PUBREC of a QoS 2 flow holds
// it (again, if its PUBREL went out already and was lost) and returns
// Release.
func (t *Flows[P]) Advance(typ MsgType, msgID uint16, code ReturnCode) (Flow[P], Step) {
	i := t.Index(msgID)
	if i < 0 {
		return Flow[P]{}, Dropped
	}
	f := &t.slots[i]
	switch {
	case typ == PUBACK && code != Accepted && (f.Await == PUBACK || f.Await == PUBREC):
	case typ == PUBREC && (f.Await == PUBREC || f.Await == PUBCOMP):
		if f.Await == PUBREC && !f.held {
			f.retries = 0
		}
		f.Await, f.held = PUBREC, true
		return Flow[P]{}, Release
	case typ != f.Await:
		return Flow[P]{}, Dropped
	}
	done := *f
	t.slots = slices.Delete(t.slots, i, i+1)
	return done, Completed
}

// Releasable releases the held flows ahead of the oldest QoS 2 flow still
// awaiting its PUBREC: each now awaits its PUBCOMP, its PUBREL sent at
// now, and a copy of it is appended to out, in enqueue order, for the
// caller to send the PUBRELs in that order.
//
// A QoS 2 receiver delivers on PUBREL, and PUBRECs follow the order the
// PUBLISHes arrived in, which the network (a lost PUBLISH, say) may
// invert. Releasing only this prefix makes the receiver deliver in
// enqueue order whatever the wire did. Due re-sends a held flow's
// PUBLISH, so when the flow ahead gives up, the held one's next PUBREC
// walks the prefix again.
func (t *Flows[P]) Releasable(now time.Time, out []Flow[P]) []Flow[P] {
	for i := range t.slots {
		f := &t.slots[i]
		if f.Await != PUBREC {
			continue
		}
		if !f.held {
			return out
		}
		f.Await, f.held = PUBCOMP, false
		f.retries, f.lastSent = 0, now
		out = append(out, *f)
	}
	return out
}

// Due re-arms, at now, every flow whose last packet went unanswered for
// RetryInterval and appends a copy of it to resend. The caller re-sends,
// by the copy's Await, the PUBLISH with DUP set (PUBACK or PUBREC), the
// PUBREL (PUBCOMP), or the request itself, a SUBSCRIBE with DUP set. A
// flow already re-sent MaxRetries times is removed and appended to gone
// instead. Both come out in enqueue order.
func (t *Flows[P]) Due(now time.Time, resend, gone []Flow[P]) ([]Flow[P], []Flow[P]) {
	kept := t.slots[:0]
	for _, f := range t.slots {
		switch {
		case now.Sub(f.lastSent) < t.RetryInterval:
		case f.retries >= t.MaxRetries:
			gone = append(gone, f)
			continue
		default:
			f.retries++
			f.lastSent = now
			resend = append(resend, f)
		}
		kept = append(kept, f)
	}
	clear(t.slots[len(kept):])
	t.slots = kept
	return resend, gone
}

package mqttsn

import (
	"cmp"
	"slices"
	"time"
)

// Flows is the outbound side of one end of a hop: every acknowledged
// exchange it has in flight (a QoS 1 or QoS 2 PUBLISH, or a CONNECT,
// REGISTER, SUBSCRIBE or UNSUBSCRIBE), in enqueue order, each holding the
// caller's P. The broker's session and the Client both drive one. It
// times its own hop (RFC 6298): the round trips of its flows set the
// retransmission timeout (RTO) that re-sends and give-ups follow.
//
// Flows has no clock, socket, lock or goroutine: the caller passes the
// time, sends what it is told to send, reports each write with Sent, and
// holds its own mutex across every call. Slots move when one is removed,
// so a *Flow is valid only until the next change to the table; never
// keep one across an unlock.
type Flows[P any] struct {
	slots []Flow[P]
	last  uint16 // the last msgID handed out

	// srtt and rttvar smooth the round trips of flows never re-sent; base
	// is the RTO they give, zero before the first. rto is the wait a
	// packet starts with: base, or more after a timeout backed it off.
	srtt, rttvar, base, rto time.Duration
}

// The RTO is InitialRTO until a round trip is measured, and stays within
// [MinRTO, MaxRTO]. A flow gives up after giveUpRTOs measured RTOs
// unanswered, never before minGiveUp: five 1 s re-sends and a last
// second on a fast link.
const (
	InitialRTO = time.Second
	MinRTO     = 200 * time.Millisecond
	MaxRTO     = 60 * time.Second
	giveUpRTOs = 6
	minGiveUp  = 6 * time.Second
)

// Flow is one exchange in flight. Its state is the acknowledgement it
// awaits: PUBACK or PUBREC after a QoS 1 or QoS 2 PUBLISH, PUBCOMP after
// a PUBREL, or the request's own; and, for PUBREC, whether it came and
// the PUBREL is held back (see Releasable).
type Flow[P any] struct {
	MsgID   uint16
	Await   MsgType
	Payload P

	held bool
	// resent: the packet awaiting an answer went out twice, so its answer
	// cannot tell which copy it answers and times nothing (Karn's rule).
	// A PUBREL is a new packet: its PUBCOMP times it if it went out once.
	resent bool
	// since is when the packet awaiting an answer was first written, and
	// sent when it was last written: zero while its write is pending. The
	// next re-send is due wait after sent.
	since, sent time.Time
	wait        time.Duration
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

// Add appends a flow awaiting await and returns it for the caller to
// fill in Payload. Its clock starts at now, when its first packet was
// written, or, if now is zero, when the caller reports that write with
// Sent. A CONNECT's flow (awaiting CONNACK) takes msgID 0; every other
// flow gets the next msgID after the last one handed out that is neither
// 0 nor held by a flow.
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
	t.slots = append(t.slots, Flow[P]{MsgID: id, Await: await, since: now, sent: now, wait: t.RTO()})
	return &t.slots[len(t.slots)-1]
}

// Sent starts the clock of the flow holding msgID, if it still awaits
// await and its write was pending: the write of the packet Add, Due or
// Releasable handed out returned at now. A flow is never due while its
// write is pending, since a shaped link blocks the writer for the
// packet's serialization time, and a clock started before would time a
// large packet out while its own bytes are still leaving.
func (t *Flows[P]) Sent(msgID uint16, await MsgType, now time.Time) {
	i := t.Index(msgID)
	if i < 0 || t.slots[i].Await != await || !t.slots[i].sent.IsZero() {
		return
	}
	f := &t.slots[i]
	f.sent = now
	if f.since.IsZero() {
		f.since = now
	}
}

// RTO is the wait a packet sent now starts with.
func (t *Flows[P]) RTO() time.Duration { return cmp.Or(t.rto, InitialRTO) }

// Budget is how long a flow's packet may go unanswered, from its first
// write, before Due gives the flow up; a backoff does not lengthen it. No
// wait backs off past a third of it, so every flow goes out at least three
// times before it gives up, whatever the table's backoff.
func (t *Flows[P]) Budget() time.Duration {
	return max(minGiveUp, giveUpRTOs*cmp.Or(t.base, InitialRTO))
}

// measure takes the round trip of f's packet, answered at now, into the
// estimate (RFC 6298 §2), unless the packet went out twice. An answer
// that came before the caller reported the write (a loopback round trip
// beating the writer back to the caller's mutex) is a zero round trip.
// The sample ends any backoff.
func (t *Flows[P]) measure(f *Flow[P], now time.Time) {
	if f.resent {
		return
	}
	if r := now.Sub(cmp.Or(f.sent, now)); t.base == 0 {
		t.srtt, t.rttvar = r, r/2
	} else {
		t.rttvar = (3*t.rttvar + (t.srtt - r).Abs()) / 4
		t.srtt = (7*t.srtt + r) / 8
	}
	t.base = min(max(t.srtt+4*t.rttvar, MinRTO), MaxRTO)
	t.rto = t.base
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
// code, arriving at now. A flow completes on the acknowledgement it
// awaits, or on a PUBACK refusing its PUBLISH at either QoS (a gateway
// refuses a PUBLISH that way); Advance then returns it, removed. Any
// PUBREC of a QoS 2 flow holds it (again, if its PUBREL went out already
// and was lost) and returns Release. The first acknowledgement of each
// packet sent once is a round-trip sample.
func (t *Flows[P]) Advance(typ MsgType, msgID uint16, code ReturnCode, now time.Time) (Flow[P], Step) {
	i := t.Index(msgID)
	if i < 0 {
		return Flow[P]{}, Dropped
	}
	f := &t.slots[i]
	switch {
	case typ == PUBACK && code != Accepted && (f.Await == PUBACK || f.Await == PUBREC):
	case typ == PUBREC && (f.Await == PUBREC || f.Await == PUBCOMP):
		switch {
		case f.Await == PUBCOMP:
			f.resent = true // its PUBREL goes out again
		case !f.held:
			t.measure(f, now)
			f.resent = false
		}
		f.Await, f.held = PUBREC, true
		return Flow[P]{}, Release
	case typ != f.Await:
		return Flow[P]{}, Dropped
	}
	t.measure(f, now)
	done := *f
	t.slots = slices.Delete(t.slots, i, i+1)
	return done, Completed
}

// Releasable releases the held flows ahead of the oldest QoS 2 flow still
// awaiting its PUBREC: each now awaits its PUBCOMP, its PUBREL written at
// now (or, if now is zero, reported with Sent), and a copy of it is
// appended to out, in enqueue order, for the caller to send the PUBRELs
// in that order.
//
// A QoS 2 receiver delivers on PUBREL, and PUBRECs follow the order the
// PUBLISHes arrived in, which the network (a lost PUBLISH, say) may
// invert. Releasing only this prefix makes the receiver deliver in
// enqueue order whatever the wire did. A held flow is answered, so Due
// neither re-sends nor gives it up: it waits for the flow ahead to leave
// the table, however it leaves, and the caller's next walk releases it.
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
		f.since, f.sent, f.wait = now, now, t.RTO()
		out = append(out, *f)
	}
	return out
}

// Due hands out, at now, every flow whose packet went unanswered for its
// wait, appending a copy of it to resend: the caller re-sends, by the
// copy's Await, the PUBLISH with DUP set (PUBACK or PUBREC), the PUBREL
// (PUBCOMP), or the request itself, a SUBSCRIBE with DUP set, and reports
// the write with Sent. Each re-send doubles the flow's wait, up to a third
// of the Budget, and backs the table's RTO off to it until the next
// sample. A flow unanswered for Budget since its packet's first write is
// removed and appended to gone instead. Both come out in enqueue order; a held flow, or one whose
// write is pending, is neither.
func (t *Flows[P]) Due(now time.Time, resend, gone []Flow[P]) ([]Flow[P], []Flow[P]) {
	budget := t.Budget()
	kept := t.slots[:0]
	for _, f := range t.slots {
		switch {
		case f.held || f.sent.IsZero():
		case now.Sub(f.since) >= budget:
			gone = append(gone, f)
			continue
		case now.Sub(f.sent) >= f.wait:
			f.wait = min(2*f.wait, budget/3, MaxRTO)
			t.rto = max(t.RTO(), f.wait)
			f.sent, f.resent = time.Time{}, true
			resend = append(resend, f)
		}
		kept = append(kept, f)
	}
	clear(t.slots[len(kept):])
	t.slots = kept
	return resend, gone
}

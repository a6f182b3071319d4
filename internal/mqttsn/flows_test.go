package mqttsn

import (
	"fmt"
	"testing"
	"time"
)

// The flow engine's tests drive Flows and Inbound2 directly: no socket,
// no goroutine, and time passed in.

func msgIDs[P any](fs []Flow[P]) []uint16 {
	ids := make([]uint16, len(fs))
	for i, f := range fs {
		ids[i] = f.MsgID
	}
	return ids
}

// sendFlow adds a flow awaiting await whose first packet is written at
// now.
func sendFlow[P any](fl *Flows[P], await MsgType, now time.Time) uint16 {
	return fl.Add(await, now).MsgID
}

// dueAndSend runs Due at now and writes every re-send at once.
func dueAndSend[P any](fl *Flows[P], now time.Time) (resend, gone []Flow[P]) {
	resend, gone = fl.Due(now, nil, nil)
	for _, f := range resend {
		fl.Sent(f.MsgID, f.Await, now)
	}
	return resend, gone
}

// TestFlowsAllocateMsgIDs: a msgID is the next one after the last handed
// out that is neither 0 (CONNECT's) nor held by a flow, and the counter
// wraps round the 16-bit space.
func TestFlowsAllocateMsgIDs(t *testing.T) {
	for _, tc := range []struct {
		name string
		last uint16
		held []uint16
		adds []MsgType
		want []uint16
	}{
		{"counts up from 1", 0, nil, []MsgType{PUBACK, PUBREC, REGACK}, []uint16{1, 2, 3}},
		{"connect takes 0", 7, nil, []MsgType{CONNACK, SUBACK}, []uint16{0, 8}},
		{"skips held ids", 0, []uint16{1, 3}, []MsgType{PUBREC, PUBREC}, []uint16{2, 4}},
		{"wraps past 0 and held ids", 65533, []uint16{65535, 1}, []MsgType{PUBACK, PUBACK, PUBACK}, []uint16{65534, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fl := Flows[int]{last: tc.last}
			for _, id := range tc.held {
				fl.slots = append(fl.slots, Flow[int]{MsgID: id, Await: PUBACK})
			}
			var got []uint16
			for _, await := range tc.adds {
				got = append(got, fl.Add(await, time.Time{}).MsgID)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("msgIDs %v, want %v", got, tc.want)
			}
		})
	}
}

// TestFlowsAdvance: each flow completes on the acknowledgement it awaits
// and on a PUBACK refusing its PUBLISH at either QoS; a PUBREC holds a
// QoS 2 flow for the caller's Releasable walk; a wrong-type, unknown or
// duplicate ack is dropped.
func TestFlowsAdvance(t *testing.T) {
	type ack struct {
		typ   MsgType
		msgID uint16
		code  ReturnCode
		want  Step
	}
	// The table holds msgID 1 (QoS 1), 2 (QoS 2), 3 (a REGISTER) and 0 (a
	// CONNECT).
	for _, tc := range []struct {
		name string
		acks []ack
		left []uint16
	}{
		{"wrong types dropped", []ack{
			{PUBREC, 1, Accepted, Dropped},
			{PUBCOMP, 2, Accepted, Dropped},
			{PUBACK, 2, Accepted, Dropped},
			{SUBACK, 3, Accepted, Dropped},
			{PUBACK, 9, Accepted, Dropped},
		}, []uint16{1, 2, 3, 0}},
		{"QoS 1 completes once", []ack{
			{PUBACK, 1, Accepted, Completed},
			{PUBACK, 1, Accepted, Dropped},
		}, []uint16{2, 3, 0}},
		{"QoS 2 steps through PUBREC and PUBCOMP", []ack{
			{PUBREC, 2, Accepted, Release},
			{PUBREC, 2, Accepted, Release}, // a duplicate: the PUBREL again
			{PUBCOMP, 2, Accepted, Completed},
			{PUBCOMP, 2, Accepted, Dropped},
			{PUBREC, 2, Accepted, Dropped},
		}, []uint16{1, 3, 0}},
		{"rejecting PUBACK at QoS 1 and QoS 2", []ack{
			{PUBACK, 1, RejectedInvalidID, Completed},
			{PUBACK, 2, RejectedCongestion, Completed},
		}, []uint16{3, 0}},
		{"control requests complete whatever the code", []ack{
			{REGACK, 3, RejectedNotSupported, Completed},
			{CONNACK, 0, Accepted, Completed},
		}, []uint16{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fl Flows[string]
			for _, await := range []MsgType{PUBACK, PUBREC, REGACK, CONNACK} {
				f := fl.Add(await, time.Time{})
				f.Payload = fmt.Sprint(f.MsgID)
			}
			for i, a := range tc.acks {
				f, step := fl.Advance(a.typ, a.msgID, a.code, time.Time{})
				if step != a.want {
					t.Fatalf("ack %d (%s %d %s): step %d, want %d", i, a.typ, a.msgID, a.code, step, a.want)
				}
				if step == Release {
					fl.Releasable(time.Time{}, nil)
				}
				if step == Completed && f.Payload != fmt.Sprint(a.msgID) {
					t.Errorf("ack %d completed the flow holding %q, want %d's", i, f.Payload, a.msgID)
				}
			}
			if got := msgIDs(fl.Slots()); fmt.Sprint(got) != fmt.Sprint(tc.left) {
				t.Fatalf("flows left %v, want %v", got, tc.left)
			}
		})
	}
}

// TestReleasableWalksPrefix: PUBRELs go out for the held QoS 2 flows
// ahead of the oldest one still awaiting its PUBREC, in table order,
// skipping the other flow kinds, without allocating.
func TestReleasableWalksPrefix(t *testing.T) {
	fl := Flows[int]{slots: []Flow[int]{
		{MsgID: 1, Await: PUBREC, held: true},
		{MsgID: 2, Await: PUBACK},
		{MsgID: 3, Await: REGACK},
		{MsgID: 4, Await: PUBREC, held: true},
		{MsgID: 5, Await: PUBREC},
		{MsgID: 6, Await: PUBREC, held: true},
	}}
	var buf [8]Flow[int]
	var rels []Flow[int]
	allocs := testing.AllocsPerRun(10, func() {
		fl.slots[0].Await, fl.slots[0].held = PUBREC, true
		fl.slots[3].Await, fl.slots[3].held = PUBREC, true
		rels = fl.Releasable(time.Time{}, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("Releasable allocates %.1f times", allocs)
	}
	if fmt.Sprint(msgIDs(rels)) != "[1 4]" {
		t.Fatalf("released %v, want [1 4]", msgIDs(rels))
	}
	s := fl.slots
	if s[0].Await != PUBCOMP || s[3].Await != PUBCOMP || s[5].Await != PUBREC || !s[5].held {
		t.Fatalf("states after release: %+v", s)
	}
}

// TestFlowsDue: a flow is re-sent each time its packet goes unanswered
// for its wait, which doubles with each re-send up to a third of the
// budget, and
// given up once it has gone unanswered for the budget (6 s before any
// sample); both in enqueue order. A held flow is neither, and a released flow re-sends its PUBREL.
func TestFlowsDue(t *testing.T) {
	const ms = time.Millisecond
	t0 := time.Unix(0, 0)
	var fl Flows[int]
	sendFlow(&fl, PUBACK, t0)             // 1
	sendFlow(&fl, PUBREC, t0.Add(500*ms)) // 2
	sendFlow(&fl, SUBACK, t0)             // 3
	sendFlow(&fl, PUBREC, t0)             // 4
	for i, step := range []struct {
		at           time.Duration
		pubrec       uint16 // a PUBREC for this msgID comes first
		resend, gone string
	}{
		{at: 999 * ms, resend: "[]", gone: "[]"},
		{at: 1000 * ms, resend: "[1 3 4]", gone: "[]"},
		{at: 1500 * ms, resend: "[2]", gone: "[]"},
		{at: 3000 * ms, pubrec: 4, resend: "[1 3]", gone: "[]"},
		{at: 3500 * ms, resend: "[2]", gone: "[]"},
		{at: 5000 * ms, resend: "[1 3]", gone: "[]"},
		{at: 5500 * ms, resend: "[2]", gone: "[]"},
		{at: 6000 * ms, resend: "[]", gone: "[1 3]"},
		{at: 6400 * ms, pubrec: 2, resend: "[]", gone: "[]"}, // releases 2, and 4 behind it
		{at: 8399 * ms, resend: "[]", gone: "[]"},
		{at: 8400 * ms, resend: "[2 4]", gone: "[]"},
		{at: 10400 * ms, resend: "[2 4]", gone: "[]"},
		{at: 12400 * ms, resend: "[]", gone: "[2 4]"},
	} {
		now := t0.Add(step.at)
		if step.pubrec != 0 {
			if _, s := fl.Advance(PUBREC, step.pubrec, Accepted, now); s != Release {
				t.Fatalf("step %d: PUBREC %d gave step %d", i, step.pubrec, s)
			}
			fl.Releasable(now, nil)
		}
		resend, gone := dueAndSend(&fl, now)
		if fmt.Sprint(msgIDs(resend)) != step.resend || fmt.Sprint(msgIDs(gone)) != step.gone {
			t.Fatalf("step %d at %v: resend %v, gone %v; want %s, %s", i, step.at, msgIDs(resend), msgIDs(gone), step.resend, step.gone)
		}
		for _, f := range resend {
			if step.at >= 6400*ms && f.Await != PUBCOMP {
				t.Errorf("step %d: released flow %d re-sends for %s, want its PUBREL", i, f.MsgID, f.Await)
			}
		}
	}
	if n := len(fl.Slots()); n != 0 {
		t.Fatalf("%d flows left after every one gave up", n)
	}
}

// TestGoneFlowReleasesHeld: a QoS 2 flow held behind one that never got
// its PUBREC is not re-sent; once the flow ahead gives up, Releasable
// hands out its PUBREL.
func TestGoneFlowReleasesHeld(t *testing.T) {
	t0 := time.Unix(0, 0)
	var fl Flows[int]
	sendFlow(&fl, PUBREC, t0)
	held := sendFlow(&fl, PUBREC, t0)
	if _, s := fl.Advance(PUBREC, held, Accepted, t0); s != Release || len(fl.Releasable(t0, nil)) != 0 {
		t.Fatalf("PUBREC behind an unanswered flow: step %d, or released", s)
	}
	resend, gone := dueAndSend(&fl, t0.Add(5*time.Second))
	if fmt.Sprint(msgIDs(resend), msgIDs(gone)) != "[1] []" {
		t.Fatalf("before the budget: resend %v, gone %v; want [1], []", msgIDs(resend), msgIDs(gone))
	}
	resend, gone = dueAndSend(&fl, t0.Add(6*time.Second))
	if fmt.Sprint(msgIDs(resend), msgIDs(gone)) != "[] [1]" {
		t.Fatalf("at the budget: resend %v, gone %v; want [], [1]", msgIDs(resend), msgIDs(gone))
	}
	if rels := fl.Releasable(t0.Add(6*time.Second), nil); fmt.Sprint(msgIDs(rels)) != "[2]" || rels[0].Await != PUBCOMP {
		t.Fatalf("released %+v after the flow ahead gave up, want 2 awaiting its PUBCOMP", rels)
	}
}

// TestRTOEstimate: the first round trip R sets SRTT = R and RTTVAR = R/2,
// later ones RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R| and SRTT = 7/8·SRTT +
// 1/8·R, and RTO = SRTT + 4·RTTVAR within [MinRTO, MaxRTO] (RFC 6298
// §2). The budget is six RTOs, and at least 6 s.
func TestRTOEstimate(t *testing.T) {
	const ms = time.Millisecond
	type sample struct{ r, srtt, rttvar, rto, budget time.Duration }
	for _, tc := range []struct {
		name    string
		samples []sample
	}{
		{"first and later samples", []sample{
			{400 * ms, 400 * ms, 200 * ms, 1200 * ms, 7200 * ms},
			{800 * ms, 450 * ms, 250 * ms, 1450 * ms, 8700 * ms},
			{450 * ms, 450 * ms, 1875 * ms / 10, 1200 * ms, 7200 * ms},
		}},
		{"floor", []sample{{10 * ms, 10 * ms, 5 * ms, MinRTO, 6 * time.Second}}},
		{"cap", []sample{{30 * time.Second, 30 * time.Second, 15 * time.Second, MaxRTO, 6 * MaxRTO}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fl Flows[int]
			if fl.RTO() != InitialRTO || fl.Budget() != 6*time.Second {
				t.Fatalf("before a sample: RTO %v, budget %v; want %v, 6s", fl.RTO(), fl.Budget(), InitialRTO)
			}
			now := time.Unix(0, 0)
			for i, s := range tc.samples {
				id := sendFlow(&fl, PUBACK, now)
				now = now.Add(s.r)
				fl.Advance(PUBACK, id, Accepted, now)
				if fl.srtt != s.srtt || fl.rttvar != s.rttvar || fl.RTO() != s.rto || fl.Budget() != s.budget {
					t.Fatalf("sample %d (%v): SRTT %v, RTTVAR %v, RTO %v, budget %v; want %v, %v, %v, %v",
						i, s.r, fl.srtt, fl.rttvar, fl.RTO(), fl.Budget(), s.srtt, s.rttvar, s.rto, s.budget)
				}
			}
		})
	}
}

// TestRTOKarn: the answer to a packet that went out twice times nothing,
// so the backed-off RTO stands until a packet sent once is answered. A
// QoS 2 flow's PUBREL is a new packet: its PUBCOMP times it even after the
// PUBLISH was re-sent, unless the PUBREL itself went out twice, re-sent on
// a timeout or again on a duplicate PUBREC.
func TestRTOKarn(t *testing.T) {
	const ms = time.Millisecond
	t0 := time.Unix(0, 0)
	var fl Flows[int]
	q1 := sendFlow(&fl, PUBACK, t0)
	q2 := sendFlow(&fl, PUBREC, t0)
	if resend, _ := dueAndSend(&fl, t0.Add(time.Second)); len(resend) != 2 {
		t.Fatalf("re-sent %v, want both flows", msgIDs(resend))
	}
	now := t0.Add(1010 * ms)
	fl.Advance(PUBACK, q1, Accepted, now)
	fl.Advance(PUBREC, q2, Accepted, now)
	fl.Releasable(now, nil)
	if fl.base != 0 || fl.RTO() != 2*time.Second {
		t.Fatalf("after the answers to re-sent PUBLISHes: measured RTO %v, RTO %v; want no sample and the backed-off 2s", fl.base, fl.RTO())
	}
	now = now.Add(300 * ms)
	fl.Advance(PUBCOMP, q2, Accepted, now)
	if fl.base == 0 || fl.RTO() != 900*ms {
		t.Fatalf("after the PUBCOMP of a PUBREL sent once, 300ms on: RTO %v, want 900ms", fl.RTO())
	}

	timeout := sendFlow(&fl, PUBREC, now) // its PUBREL re-sent on a timeout
	dup := sendFlow(&fl, PUBREC, now)     // its PUBREL sent again on a duplicate PUBREC
	fl.Advance(PUBREC, timeout, Accepted, now)
	fl.Advance(PUBREC, dup, Accepted, now)
	fl.Releasable(now, nil)
	fl.Advance(PUBREC, dup, Accepted, now)
	fl.Releasable(now, nil)
	srtt, rttvar := fl.srtt, fl.rttvar // after the two PUBRECs' samples
	notTimed := func(what string) {
		t.Helper()
		if fl.srtt != srtt || fl.rttvar != rttvar {
			t.Fatalf("%s timed: SRTT %v, RTTVAR %v; want %v, %v", what, fl.srtt, fl.rttvar, srtt, rttvar)
		}
	}
	fl.Advance(PUBCOMP, dup, Accepted, now.Add(10*ms))
	notTimed("the PUBCOMP of a PUBREL sent again on a duplicate PUBREC")
	if resend, _ := dueAndSend(&fl, now.Add(fl.RTO())); fmt.Sprint(msgIDs(resend)) != fmt.Sprint([]uint16{timeout}) {
		t.Fatalf("re-sent %v, want the PUBREL of %d", msgIDs(resend), timeout)
	}
	fl.Advance(PUBCOMP, timeout, Accepted, now.Add(fl.RTO()+10*ms))
	notTimed("the PUBCOMP of a PUBREL re-sent on a timeout")
}

// TestRTOBackoff: on a fast link (RTO at the floor), a flow to a silent
// peer is re-sent after 0.2, 0.4, 0.8, 1.6 and 2 s more, each re-send
// doubling its wait and the table's RTO up to a third of the budget, and
// gives up 6 s after its first write. Flows started later wait the
// backed-off RTO, so each is re-sent twice before it gives up; the
// backoff does not grow the budget.
func TestRTOBackoff(t *testing.T) {
	const ms = time.Millisecond
	t0 := time.Unix(0, 0)
	var fl Flows[int]
	fl.Advance(PUBACK, sendFlow(&fl, PUBACK, t0), Accepted, t0.Add(10*ms))
	if fl.RTO() != MinRTO {
		t.Fatalf("RTO %v after a 10ms round trip, want the floor", fl.RTO())
	}
	sendFlow(&fl, PUBREC, t0)
	for i, step := range []struct {
		at, rto time.Duration
		resent  bool
		givesUp bool
	}{
		{at: 199 * ms, rto: MinRTO},
		{at: 200 * ms, rto: 400 * ms, resent: true},
		{at: 599 * ms, rto: 400 * ms},
		{at: 600 * ms, rto: 800 * ms, resent: true},
		{at: 1400 * ms, rto: 1600 * ms, resent: true},
		{at: 3000 * ms, rto: 2000 * ms, resent: true},
		{at: 4999 * ms, rto: 2000 * ms},
		{at: 5000 * ms, rto: 2000 * ms, resent: true},
		{at: 5999 * ms, rto: 2000 * ms},
		{at: 6000 * ms, rto: 2000 * ms, givesUp: true},
	} {
		resend, gone := dueAndSend(&fl, t0.Add(step.at))
		if (len(resend) == 1) != step.resent || (len(gone) == 1) != step.givesUp || fl.RTO() != step.rto {
			t.Fatalf("step %d at %v: resend %v, gone %v, RTO %v; want resent %v, gone %v, RTO %v",
				i, step.at, msgIDs(resend), msgIDs(gone), fl.RTO(), step.resent, step.givesUp, step.rto)
		}
	}
	if fl.Budget() != 6*time.Second {
		t.Fatalf("budget %v after backing off, want 6s", fl.Budget())
	}
	for _, start := range []time.Duration{7 * time.Second, 14 * time.Second} {
		now := t0.Add(start)
		id := sendFlow(&fl, PUBACK, now)
		for _, step := range []struct {
			at           time.Duration
			resend, gone []uint16
		}{
			{1999 * ms, nil, nil}, {2000 * ms, []uint16{id}, nil},
			{3999 * ms, nil, nil}, {4000 * ms, []uint16{id}, nil},
			{5999 * ms, nil, nil}, {6000 * ms, nil, []uint16{id}},
		} {
			resend, gone := dueAndSend(&fl, now.Add(step.at))
			if fmt.Sprint(msgIDs(resend), msgIDs(gone)) != fmt.Sprint(step.resend, step.gone) {
				t.Fatalf("flow started at %v, at +%v: resend %v, gone %v; want %v, %v",
					start, step.at, msgIDs(resend), msgIDs(gone), step.resend, step.gone)
			}
		}
	}
}

// TestFlowsWaitForWrite: a flow is never due, nor given up, while the
// write of its packet is pending: its first PUBLISH, a re-send, or its
// PUBREL. A write reported for a packet the flow no longer awaits an
// answer to (its PUBLISH after the PUBREC came) starts no clock, and an
// answer that came first is a zero round trip.
func TestFlowsWaitForWrite(t *testing.T) {
	const ms = time.Millisecond
	t0 := time.Unix(0, 0)
	var fast Flows[int]
	early := fast.Add(CONNACK, time.Time{}).MsgID
	fast.Advance(CONNACK, early, Accepted, t0)
	fast.Sent(early, CONNACK, t0.Add(ms))
	if fast.srtt != 0 || fast.RTO() != MinRTO {
		t.Fatalf("answer before the write was reported: SRTT %v, RTO %v; want 0 and the floor", fast.srtt, fast.RTO())
	}
	var fl Flows[int]
	id := fl.Add(PUBREC, time.Time{}).MsgID
	late := t0.Add(100 * time.Second)
	if resend, gone := fl.Due(late, nil, nil); len(resend)+len(gone) != 0 {
		t.Fatalf("flow handed out before its first write: resend %v, gone %v", msgIDs(resend), msgIDs(gone))
	}
	fl.Sent(id, PUBREC, late) // a write that took 100 s on a shaped link
	if resend, _ := fl.Due(late.Add(999*ms), nil, nil); len(resend) != 0 {
		t.Fatal("flow re-sent before its wait from the write")
	}
	if resend, _ := fl.Due(late.Add(time.Second), nil, nil); len(resend) != 1 {
		t.Fatal("flow not re-sent a wait after its write")
	}
	if resend, gone := fl.Due(late.Add(time.Hour), nil, nil); len(resend)+len(gone) != 0 {
		t.Fatalf("flow handed out while its re-send is being written: resend %v, gone %v", msgIDs(resend), msgIDs(gone))
	}
	now := late.Add(time.Hour)
	fl.Sent(id, PUBREC, now)
	fl.Advance(PUBREC, id, Accepted, now)
	fl.Releasable(time.Time{}, nil)
	fl.Sent(id, PUBREC, now) // the PUBLISH's write, reported after the PUBREC
	if resend, gone := fl.Due(now.Add(time.Hour), nil, nil); len(resend)+len(gone) != 0 {
		t.Fatalf("flow handed out before its PUBREL was written: resend %v, gone %v", msgIDs(resend), msgIDs(gone))
	}
	fl.Sent(id, PUBCOMP, now.Add(time.Hour))
	if _, s := fl.Advance(PUBCOMP, id, Accepted, now.Add(time.Hour+ms)); s != Completed {
		t.Fatalf("PUBCOMP gave step %d", s)
	}
}

// TestInbound2: a receiver's inbound QoS 2 table drops a PUBLISH
// retransmitted before its PUBREL and, within the last 64 releases, after
// it; it forgets a flow the sender abandoned once the sender's counter has
// moved half the msgID space past it, and keeps one not that far behind.
func TestInbound2(t *testing.T) {
	type op struct {
		release bool // else receive
		msgID   uint16
		want    bool // fresh for a receive, a held flow for a release
	}
	recv := func(id uint16, fresh bool) op { return op{false, id, fresh} }
	rel := func(id uint16, held bool) op { return op{true, id, held} }
	releaseRun := func(from, to uint16) []op {
		var ops []op
		for id := from; id <= to; id++ {
			ops = append(ops, recv(id, true), rel(id, true))
		}
		return ops
	}
	abandonedRun := func(from uint16) []op {
		var ops []op
		for step := uint16(1); step <= 15; step++ {
			ops = append(ops, recv(from+step*inbound2ReapStep, true))
		}
		return ops
	}
	for _, tc := range []struct {
		name string
		ops  []op
	}{
		{"retransmission before PUBREL", []op{recv(5, true), recv(5, false), rel(5, true), rel(5, false)}},
		{"late duplicate after PUBREL", []op{recv(5, true), rel(5, true), recv(5, false), rel(5, false)}},
		{"released window is 64 msgIDs", append(releaseRun(1, 65), recv(1, true), recv(2, false))},
		{"abandoned flow reaped", append(append([]op{recv(100, true)}, abandonedRun(100)...), recv(100, true))},
		{"live flow kept", []op{recv(100, true), recv(100+inbound2ReapStep, true), recv(100, false)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var in Inbound2[uint16]
			for i, o := range tc.ops {
				var got bool
				if o.release {
					var v uint16
					v, got = in.Release(o.msgID)
					if got && v != o.msgID {
						t.Fatalf("op %d: PUBREL %d released %d", i, o.msgID, v)
					}
				} else {
					got = in.Receive(o.msgID, o.msgID)
				}
				if got != o.want {
					t.Fatalf("op %d (%+v): got %v", i, o, got)
				}
			}
		})
	}
}

// TestFlowsSteadyStateAllocs: once the table and its buffers have grown,
// a window of publishes sent, re-sent, acknowledged, released and
// completed allocates nothing, and neither does the receiver's side. One
// fresh flow's round trip per window ends the window's backoff.
func TestFlowsSteadyStateAllocs(t *testing.T) {
	var fl Flows[*int]
	var in Inbound2[struct{}]
	var rels, resend, gone []Flow[*int]
	now := time.Unix(0, 0)
	window := func() {
		for i := 0; i < 16; i++ {
			sendFlow(&fl, PublishAwaits(QoS(1+i%2)), now)
		}
		now = now.Add(fl.RTO())
		resend, gone = fl.Due(now, resend[:0], gone[:0])
		for _, f := range resend {
			fl.Sent(f.MsgID, f.Await, now)
		}
		for _, f := range fl.Slots() {
			in.Receive(f.MsgID, struct{}{})
		}
		for len(fl.Slots()) > 0 {
			f := fl.Slots()[0]
			if f.Await == PUBREC {
				fl.Advance(PUBREC, f.MsgID, Accepted, now)
				rels = fl.Releasable(now, rels[:0])
				for _, r := range rels {
					in.Release(r.MsgID)
				}
				continue
			}
			in.Release(f.MsgID)
			fl.Advance(f.Await, f.MsgID, Accepted, now)
		}
		fl.Advance(PUBACK, sendFlow(&fl, PUBACK, now), Accepted, now)
	}
	window()
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Errorf("a window of 16 flows allocates %.1f times", allocs)
	}
	if len(resend) != 16 || len(gone) != 0 {
		t.Errorf("Due re-sent %d and gave up %d of 16 flows, want 16 and 0", len(resend), len(gone))
	}
}

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
				f, step := fl.Advance(a.typ, a.msgID, a.code)
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

// TestFlowsDue: a flow is re-sent each RetryInterval its packet goes
// unanswered, MaxRetries times, then given up; both in enqueue order. A
// PUBREC restarts the count of a held flow, and a released flow re-sends
// its PUBREL.
func TestFlowsDue(t *testing.T) {
	const ms = time.Millisecond
	t0 := time.Unix(0, 0)
	fl := Flows[int]{RetryInterval: 10 * ms, MaxRetries: 2}
	fl.Add(PUBACK, t0)           // 1
	fl.Add(PUBREC, t0.Add(5*ms)) // 2
	fl.Add(SUBACK, t0)           // 3
	fl.Add(PUBREC, t0)           // 4
	for i, step := range []struct {
		at           time.Duration
		pubrec       uint16 // a PUBREC for this msgID comes first
		resend, gone string
	}{
		{at: 9 * ms, resend: "[]", gone: "[]"},
		{at: 10 * ms, resend: "[1 3 4]", gone: "[]"},
		{at: 15 * ms, resend: "[2]", gone: "[]"},
		{at: 20 * ms, pubrec: 4, resend: "[1 3 4]", gone: "[]"},
		{at: 25 * ms, resend: "[2]", gone: "[]"},
		{at: 30 * ms, resend: "[4]", gone: "[1 3]"},
		{at: 35 * ms, pubrec: 2, resend: "[]", gone: "[]"}, // releases 2, and 4 behind it
		{at: 45 * ms, resend: "[2 4]", gone: "[]"},
		{at: 55 * ms, resend: "[2 4]", gone: "[]"},
		{at: 65 * ms, resend: "[]", gone: "[2 4]"},
	} {
		now := t0.Add(step.at)
		if step.pubrec != 0 {
			if _, s := fl.Advance(PUBREC, step.pubrec, Accepted); s != Release {
				t.Fatalf("step %d: PUBREC %d gave step %d", i, step.pubrec, s)
			}
			fl.Releasable(now, nil)
		}
		resend, gone := fl.Due(now, nil, nil)
		if fmt.Sprint(msgIDs(resend)) != step.resend || fmt.Sprint(msgIDs(gone)) != step.gone {
			t.Fatalf("step %d at %v: resend %v, gone %v; want %s, %s", i, step.at, msgIDs(resend), msgIDs(gone), step.resend, step.gone)
		}
		for _, f := range resend {
			if step.at >= 45*ms && f.Await != PUBCOMP {
				t.Errorf("step %d: released flow %d re-sends for %s, want its PUBREL", i, f.MsgID, f.Await)
			}
		}
	}
	if n := len(fl.Slots()); n != 0 {
		t.Fatalf("%d flows left after every one gave up", n)
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
// a window of publishes sent, acknowledged, released, swept and completed
// allocates nothing, and neither does the receiver's side.
func TestFlowsSteadyStateAllocs(t *testing.T) {
	fl := Flows[*int]{RetryInterval: time.Second, MaxRetries: 3}
	var in Inbound2[struct{}]
	var rels, resend, gone []Flow[*int]
	now := time.Unix(0, 0)
	window := func() {
		for i := 0; i < 16; i++ {
			fl.Add(PublishAwaits(QoS(1+i%2)), now)
		}
		now = now.Add(2 * time.Second)
		resend, gone = fl.Due(now, resend[:0], gone[:0])
		for _, f := range fl.Slots() {
			in.Receive(f.MsgID, struct{}{})
		}
		for len(fl.Slots()) > 0 {
			f := fl.Slots()[0]
			if f.Await == PUBREC {
				fl.Advance(PUBREC, f.MsgID, Accepted)
				rels = fl.Releasable(now, rels[:0])
				for _, r := range rels {
					in.Release(r.MsgID)
				}
				continue
			}
			in.Release(f.MsgID)
			fl.Advance(f.Await, f.MsgID, Accepted)
		}
	}
	window()
	if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
		t.Errorf("a window of 16 flows allocates %.1f times", allocs)
	}
	if len(resend) != 16 || len(gone) != 0 {
		t.Errorf("Due re-sent %d and gave up %d of 16 flows, want 16 and 0", len(resend), len(gone))
	}
}

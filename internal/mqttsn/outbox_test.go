package mqttsn

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// outboxLog records what an outbox released, for the table tests.
type outboxLog struct {
	pending map[int]int // per partition: items put and not yet released
	lost    []int       // items released with an error
}

// newTestOutbox returns an outbox of int items (partitions) whose PUBLISH
// carries up to per items, and its release log.
func newTestOutbox(capacity, per int) (*Outbox[int], *outboxLog) {
	log := &outboxLog{pending: map[int]int{}}
	pack := func(q []int) (int, Message, error) {
		return min(per, len(q)), Message{Topic: "t", QoS: QoS2}, nil
	}
	release := func(items []int, _ Message, err error) {
		for _, part := range items {
			log.pending[part]--
			if err != nil {
				log.lost = append(log.lost, part)
			}
		}
	}
	return NewOutbox(capacity, pack, release), log
}

// put queues items, counting them pending.
func (l *outboxLog) put(t *testing.T, o *Outbox[int], items ...int) {
	t.Helper()
	for _, it := range items {
		if !o.Put(it, nil) {
			t.Fatalf("Put(%d) refused", it)
		}
		l.pending[it]++
	}
}

// begin starts a session, as Serve does.
func begin(o *Outbox[int]) uint64 {
	o.session++
	return o.session
}

// sendNext packs and commits the next queued PUBLISH on session, as Serve
// does, and returns its seq.
func sendNext(t *testing.T, o *Outbox[int], session uint64) uint64 {
	t.Helper()
	_, _, q, ok := o.next(session, 64)
	if !ok || q == nil {
		t.Fatal("nothing queued")
	}
	n, m, err := o.pack(q)
	seq, ok := o.commit(n, m, err, session)
	if !ok {
		t.Fatal("commit released the PUBLISH")
	}
	return seq
}

// kept lists the items of the unreleased PUBLISHes, in send order.
func kept(o *Outbox[int]) []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []int
	at := o.head
	for _, p := range o.sent {
		if !p.done {
			out = append(out, o.items[at:at+p.n]...)
		}
		at += p.n
	}
	return out
}

// TestOutboxKeepsSendOrder: PUBLISHes released out of order leave the
// others kept in send order, releasing one twice or one the outbox never
// sent releases nothing, the released front of the table is popped, and
// each release settles its partition's pending count once.
func TestOutboxKeepsSendOrder(t *testing.T) {
	o, log := newTestOutbox(8, 1)
	log.put(t, o, 0, 1, 2, 3, 4)
	s := begin(o)
	var seqs []uint64
	for i := 0; i < 5; i++ {
		seqs = append(seqs, sendNext(t, o, s))
	}
	o.complete(seqs[2], s, nil)
	o.complete(seqs[0], s, nil)
	o.complete(seqs[0], s, nil)
	o.complete(seqs[4]+99, s, nil)
	if got, want := kept(o), []int{1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("kept parts %v, want %v", got, want)
	}
	if len(o.sent) != 4 {
		t.Errorf("table holds %d entries, want 4 (the released front popped)", len(o.sent))
	}
	o.complete(seqs[1], s, nil)
	if got, want := kept(o), []int{3, 4}; !reflect.DeepEqual(got, want) || len(o.sent) != 2 {
		t.Errorf("kept parts %v in %d entries, want %v in 2", got, len(o.sent), want)
	}
	if want := map[int]int{0: 0, 1: 0, 2: 0, 3: 1, 4: 1}; !reflect.DeepEqual(log.pending, want) {
		t.Errorf("pending counts %v, want %v", log.pending, want)
	}
}

// TestOutboxTakeOrder: Take returns the items of the unreleased
// PUBLISHes in send order, then the queued ones, and empties the outbox;
// a completion that arrives after it releases nothing.
func TestOutboxTakeOrder(t *testing.T) {
	o, log := newTestOutbox(8, 2)
	log.put(t, o, 0, 1, 2, 3, 4, 5, 6)
	s := begin(o)
	first := sendNext(t, o, s)  // carries 0, 1
	second := sendNext(t, o, s) // 2, 3
	third := sendNext(t, o, s)  // 4, 5
	o.complete(second, s, nil)
	if got, want := o.Take(), []int{0, 1, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Take = %v, want %v", got, want)
	}
	o.complete(first, s, nil)
	o.complete(third, s, nil)
	if want := map[int]int{0: 1, 1: 1, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}; !reflect.DeepEqual(log.pending, want) {
		t.Errorf("pending counts %v, want %v (a completion after Take released)", log.pending, want)
	}
	if got := o.Take(); len(got) != 0 {
		t.Errorf("second Take = %v, want nothing", got)
	}
	// The outbox goes on after a Take, with fresh seqs.
	log.put(t, o, 7)
	if seq := sendNext(t, o, s); seq <= third {
		t.Errorf("seq %d after Take, want past %d", seq, third)
	}
}

// TestOutboxStaleCompletionAfterReplay: a failed handshake keeps its
// PUBLISH and stops the session sending; the next session re-sends the
// kept PUBLISHes in send order, but not one the old session saw complete;
// and a completion from the old session for a PUBLISH the new one
// re-sent neither releases it nor counts twice.
func TestOutboxStaleCompletionAfterReplay(t *testing.T) {
	o, log := newTestOutbox(8, 1)
	log.put(t, o, 0, 1, 2, 3)
	s1 := begin(o)
	a := sendNext(t, o, s1)
	b := sendNext(t, o, s1)
	c := sendNext(t, o, s1)
	if !o.complete(a, s1, ErrTimeout) {
		t.Fatal("a failed handshake did not fail its session")
	}
	if _, _, _, ok := o.next(s1, 64); ok {
		t.Fatal("a failed session may still send")
	}
	o.complete(b, s1, nil) // completes before the next session begins

	s2 := begin(o)
	var replayed []uint64
	for {
		seq, _, q, ok := o.next(s2, 64)
		if !ok || q != nil {
			break
		}
		replayed = append(replayed, seq)
	}
	if want := []uint64{a, c}; !reflect.DeepEqual(replayed, want) {
		t.Fatalf("replayed %v, want %v", replayed, want)
	}
	if o.complete(a, s1, nil) || o.complete(c, s1, ErrClosed) {
		t.Error("a stale completion failed the new session")
	}
	if got, want := kept(o), []int{0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("kept %v after stale completions, want %v", got, want)
	}
	o.complete(a, s2, nil)
	o.complete(a, s2, nil)
	o.complete(c, s2, nil)
	if want := map[int]int{0: 0, 1: 0, 2: 0, 3: 1}; !reflect.DeepEqual(log.pending, want) {
		t.Errorf("pending counts %v, want %v", log.pending, want)
	}
	if got := sendNext(t, o, s2); got != c+1 {
		t.Errorf("the queued item left as seq %d, want %d", got, c+1)
	}
}

// TestOutboxReleasesWhatCannotBeSent: a pack error and an ErrTooLarge
// completion release their items with the error, and neither fails the
// session.
func TestOutboxReleasesWhatCannotBeSent(t *testing.T) {
	o, log := newTestOutbox(8, 1)
	log.put(t, o, 0, 1, 2)
	s := begin(o)
	_, _, q, _ := o.next(s, 64)
	n, m, _ := o.pack(q)
	if _, ok := o.commit(n, m, errors.New("cannot pack"), s); ok {
		t.Fatal("a pack error was sent")
	}
	if o.complete(sendNext(t, o, s), s, ErrTooLarge) {
		t.Fatal("ErrTooLarge failed the session")
	}
	if want := []int{0, 1}; !reflect.DeepEqual(log.lost, want) {
		t.Errorf("lost %v, want %v", log.lost, want)
	}
	if _, _, _, ok := o.next(s, 64); !ok {
		t.Error("the session stopped sending")
	}
}

// TestOutboxWindowAndQueueBounds: next offers no queue while limit
// PUBLISHes are unreleased, Put with no stop channel refuses past the
// capacity, and with one it waits for room but gives up once it closes.
func TestOutboxWindowAndQueueBounds(t *testing.T) {
	o, log := newTestOutbox(2, 1)
	log.put(t, o, 0, 1)
	if o.Put(2, nil) {
		t.Fatal("Put past the capacity")
	}
	s := begin(o)
	first, _ := o.commit(1, Message{}, nil, s)
	if _, _, _, ok := o.next(s, 1); ok {
		t.Fatal("queued past the window")
	}
	o.complete(first, s, nil)
	if _, _, _, ok := o.next(s, 1); !ok {
		t.Fatal("nothing queued after a release")
	}
	put, open := make(chan bool), make(chan struct{})
	go func() { put <- o.Put(2, open) }()
	go func() { put <- o.Put(3, open) }()
	time.Sleep(10 * time.Millisecond)
	o.commit(1, Message{}, nil, s) // room for one
	if !<-put {
		t.Fatal("PutWait gave up")
	}
	stop := make(chan struct{})
	close(stop)
	if o.Put(4, stop) {
		t.Fatal("PutWait queued after its stop closed")
	}
	o.Take() // room for the other
	if !<-put {
		t.Fatal("PutWait gave up")
	}
}

// TestOutboxSteadyStateAllocs: a put, its PUBLISH and its release
// allocate nothing once the outbox has warmed up, with a window of
// PUBLISHes in flight.
func TestOutboxSteadyStateAllocs(t *testing.T) {
	o, _ := newTestOutbox(1024, 1)
	o.release = func([]int, Message, error) {}
	s := begin(o)
	var flying []uint64
	step := func() {
		o.Put(1, nil)
		_, _, q, _ := o.next(s, 64)
		n, m, err := o.pack(q)
		seq, _ := o.commit(n, m, err, s)
		flying = append(flying, seq)
		if len(flying) > 16 {
			o.complete(flying[0], s, nil)
			flying = flying[:copy(flying, flying[1:])]
		}
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("%v allocations per put and release, want 0", allocs)
	}
}

package mqttsn

import (
	"errors"
	"slices"
	"sync"
)

// Message is one PUBLISH an Outbox sends.
type Message struct {
	Topic   string
	Payload []byte
	QoS     QoS
}

// Outbox is an ordered sender that outlives its sessions: a queue of
// items, bounded by a capacity, and the PUBLISHes already sent, in send
// order, each kept with the items it carries until its hop completes. The
// next session re-sends the kept ones in send order before anything new,
// so delivery is at least once across a session change. The table has no
// goroutine, clock or socket; Serve works it on one session.
//
// pack builds the next PUBLISH from the front of the queue, never empty:
// how many items it carries and the PUBLISH, or an error that releases
// them unsent. It runs on Serve's goroutine without the lock, and may read
// queue until it returns. release runs, under the lock, for every PUBLISH
// that leaves other than by Take: with nil when its hop completed, or with
// the error that means it can never be sent (pack's, or ErrTooLarge).
type Outbox[T any] struct {
	pack    func(queue []T) (int, Message, error)
	release func(items []T, m Message, err error)

	mu       sync.Mutex
	capacity int
	// items holds the sent PUBLISHes' items from head to mark, then the
	// queue. Only next moves them, so the queue pack reads stays put.
	items      []T
	head, mark int
	sent       []parcel // seqs first, first+1, ...
	first      uint64
	pending    int // sent and not released
	// session numbers Serve's sessions; a parcel holds the one it was last
	// sent on, so a completion from an older one changes nothing. broken is
	// the last one a handshake failed on.
	session, broken uint64
	wake            chan struct{}
	space           chan struct{} // closed when the queue has room
}

type parcel struct {
	m       Message
	n       int
	session uint64
	done    bool
}

// NewOutbox returns an outbox whose queue holds up to capacity items.
func NewOutbox[T any](capacity int, pack func(queue []T) (int, Message, error), release func(items []T, m Message, err error)) *Outbox[T] {
	return &Outbox[T]{pack: pack, release: release, capacity: capacity,
		items: make([]T, 0, capacity), wake: make(chan struct{}, 1)}
}

// Put queues item. When the queue is full it waits for room, unless stop
// is nil; it gives up once stop is closed, also when there is room, so it
// never queues after a Take that followed the close.
func (o *Outbox[T]) Put(item T, stop <-chan struct{}) bool {
	for {
		o.mu.Lock()
		select {
		case <-stop:
			o.mu.Unlock()
			return false
		default:
		}
		if len(o.items)-o.mark < o.capacity {
			o.items = append(o.items, item)
			o.mu.Unlock()
			o.signal()
			return true
		}
		if stop == nil {
			o.mu.Unlock()
			return false
		}
		if o.space == nil {
			o.space = make(chan struct{})
		}
		space := o.space
		o.mu.Unlock()
		select {
		case <-space:
		case <-stop:
			return false
		}
	}
}

func (o *Outbox[T]) signal() {
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// Serve sends through one session until down is closed, as a Session's
// Serve: every kept PUBLISH in send order, then what pack builds from the
// queue, with at most the client's window unreleased. A failed handshake
// (refused, out of retries, or cut by the session's end) keeps its
// PUBLISH and closes the client, so the supervisor redials.
func (o *Outbox[T]) Serve(mc *Client, down <-chan struct{}) {
	_, window := mc.WindowOccupancy()
	o.mu.Lock()
	o.session++
	session := o.session
	o.mu.Unlock()
	for {
		seq, m, queue, ok := o.next(session, window)
		if !ok {
			select {
			case <-o.wake:
				continue
			case <-down:
				return
			}
		}
		if queue != nil {
			n, pm, err := o.pack(queue)
			if seq, ok = o.commit(n, pm, err, session); !ok {
				continue
			}
			m = pm
		}
		mc.PublishAsync(m.Topic, m.Payload, m.QoS, func(err error) {
			if o.complete(seq, session, err) && !errors.Is(err, ErrClosed) {
				go mc.Close() // not on the client's own loops
			}
		})
	}
}

// next returns what session sends next: the oldest kept PUBLISH it has
// not sent, marked as sent on it, or else the queue for pack. It returns
// nothing once session has failed a handshake, and no queue while limit
// PUBLISHes are unreleased. It drops the released items ahead of head
// once they are as many as the live ones; nothing else moves items.
func (o *Outbox[T]) next(session uint64, limit int) (uint64, Message, []T, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.broken == session {
		return 0, Message{}, nil, false
	}
	for i := range o.sent {
		if p := &o.sent[i]; !p.done && p.session != session {
			p.session = session
			return o.first + uint64(i), p.m, nil, true
		}
	}
	if o.head > 0 && o.head >= len(o.items)-o.head {
		live := copy(o.items, o.items[o.head:])
		clear(o.items[live:])
		o.items, o.mark, o.head = o.items[:live], o.mark-o.head, 0
	}
	if o.pending >= limit || o.mark == len(o.items) {
		return 0, Message{}, nil, false
	}
	return 0, Message{}, o.items[o.mark:], true
}

// commit records the PUBLISH pack built from the first n queued items as
// sent on session and returns its seq, or, given pack's error, releases
// the items at once.
func (o *Outbox[T]) commit(n int, m Message, err error, session uint64) (uint64, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sent = append(o.sent, parcel{m: m, n: n, session: session})
	o.mark += n
	o.pending++
	o.roomLocked()
	if err != nil {
		o.releaseLocked(len(o.sent)-1, err)
		return 0, false
	}
	return o.first + uint64(len(o.sent)-1), true
}

// complete applies the outcome of PUBLISH seq sent on session and reports
// whether it failed the session, which keeps the PUBLISH; success or
// ErrTooLarge releases it. It changes nothing for a PUBLISH released,
// taken, or sent again by a later session.
func (o *Outbox[T]) complete(seq, session uint64, err error) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	i := seq - o.first
	if i >= uint64(len(o.sent)) || o.sent[i].done || o.sent[i].session != session {
		return false
	}
	if err != nil && !errors.Is(err, ErrTooLarge) {
		o.broken = session
		return true
	}
	o.releaseLocked(int(i), err)
	return false
}

// releaseLocked releases sent[i], pops the released front of sent and
// wakes Serve, which may be waiting for the window.
func (o *Outbox[T]) releaseLocked(i int, err error) {
	at := o.head
	for _, p := range o.sent[:i] {
		at += p.n
	}
	p := &o.sent[i]
	o.release(o.items[at:at+p.n], p.m, err)
	clear(o.items[at : at+p.n])
	p.done, p.m = true, Message{}
	o.pending--
	k := 0
	for ; k < len(o.sent) && o.sent[k].done; k++ {
		o.head += o.sent[k].n
	}
	o.sent = slices.Delete(o.sent, 0, k)
	o.first += uint64(k)
	o.signal()
}

func (o *Outbox[T]) roomLocked() {
	if o.space != nil {
		close(o.space)
		o.space = nil
	}
}

// Take empties the outbox once its session has stopped and returns the
// items, oldest first: the unreleased PUBLISHes' in send order, then the
// queued ones. A completion that arrives later changes nothing.
func (o *Outbox[T]) Take() []T {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]T, 0, len(o.items)-o.head)
	at := o.head
	for _, p := range o.sent {
		if !p.done {
			out = append(out, o.items[at:at+p.n]...)
		}
		at += p.n
	}
	out = append(out, o.items[o.mark:]...)
	clear(o.items)
	clear(o.sent)
	o.first += uint64(len(o.sent))
	o.items, o.sent, o.head, o.mark, o.pending = o.items[:0], o.sent[:0], 0, 0, 0
	o.roomLocked()
	return out
}

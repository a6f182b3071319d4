package translate

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/provlight/provlight/internal/provdm"
)

// DefaultSubscribeBuffer is the per-subscriber channel capacity used when
// Filter.Buffer is zero.
const DefaultSubscribeBuffer = 256

// Filter selects which translated records a live subscription receives.
// The zero value matches every record.
type Filter struct {
	// Workflow restricts delivery to one workflow id ("" = all).
	Workflow string
	// TaskID restricts delivery to one task id ("" = all).
	TaskID string
	// Transformation restricts delivery to one transformation ("" = all).
	Transformation string
	// Events restricts delivery to the listed event kinds (empty = all).
	Events []provdm.EventKind
	// Buffer is the subscriber's bounded channel capacity. Default
	// DefaultSubscribeBuffer. When the buffer is full, new records for
	// this subscriber are dropped (see Hub drop semantics) rather than
	// backpressuring the capture pipeline.
	Buffer int
}

// match reports whether the filter accepts a record.
func (f *Filter) match(r *provdm.Record) bool {
	if f.Workflow != "" && r.WorkflowID != f.Workflow {
		return false
	}
	if f.TaskID != "" && r.TaskID != f.TaskID {
		return false
	}
	if f.Transformation != "" && r.Transformation != f.Transformation {
		return false
	}
	if len(f.Events) > 0 {
		ok := false
		for _, e := range f.Events {
			if r.Event == e {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// HubStats counts live-subscription activity.
type HubStats struct {
	// Subscribers is the number of currently active subscriptions.
	Subscribers int
	// Delivered counts records handed to subscriber channels.
	Delivered uint64
	// Dropped counts records discarded because a subscriber's bounded
	// buffer was full (slow consumer). Drops are per subscriber: one
	// record fanning out to three subscribers, two of them stalled,
	// counts two drops and one delivery.
	Dropped uint64
}

// Hub fans translated records out to live subscribers. Each Translator
// owns one (Translator.Subscribe): its delivery loop publishes every
// decoded batch after target delivery, so a subscription observes exactly
// the record stream the targets ingest, in the same order.
//
// Slow-consumer semantics: delivery to a subscriber is non-blocking. A
// subscriber whose bounded buffer is full loses the record (counted in
// HubStats.Dropped); the capture and target-delivery paths are never
// backpressured by a stalled dashboard.
type Hub struct {
	mu     sync.RWMutex
	subs   map[*hubSub]struct{}
	closed bool

	delivered atomic.Uint64
	dropped   atomic.Uint64
}

type hubSub struct {
	ch       chan provdm.Record
	filter   Filter
	done     chan struct{}
	doneOnce sync.Once
	dropped  atomic.Uint64
}

// finish signals the subscription's ctx-watcher goroutine to exit.
func (s *hubSub) finish() { s.doneOnce.Do(func() { close(s.done) }) }

// newHub returns an empty hub.
func newHub() *Hub { return &Hub{subs: map[*hubSub]struct{}{}} }

// Subscribe registers a live record stream matching filter and returns the
// receive channel plus a cancel function. The channel is closed when the
// subscription ends — by calling cancel, by ctx being cancelled, or by the
// hub shutting down. cancel is idempotent and safe to call concurrently.
func (h *Hub) Subscribe(ctx context.Context, filter Filter) (<-chan provdm.Record, func()) {
	if filter.Buffer <= 0 {
		filter.Buffer = DefaultSubscribeBuffer
	}
	s := &hubSub{
		ch:     make(chan provdm.Record, filter.Buffer),
		filter: filter,
		done:   make(chan struct{}),
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(s.ch)
		return s.ch, func() {}
	}
	h.subs[s] = struct{}{}
	h.mu.Unlock()

	cancel := func() {
		h.mu.Lock()
		if _, ok := h.subs[s]; ok {
			delete(h.subs, s)
			close(s.ch) // safe: Publish sends only under RLock
		}
		h.mu.Unlock()
		s.finish()
	}
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				cancel()
			case <-s.done:
			}
		}()
	}
	return s.ch, cancel
}

// Publish fans a batch of decoded frames out to every matching subscriber,
// dropping records for subscribers whose buffer is full.
func (h *Hub) Publish(frames []Frame) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if len(h.subs) == 0 {
		return
	}
	for f := range frames {
		records := frames[f].Records
		for i := range records {
			for s := range h.subs {
				if !s.filter.match(&records[i]) {
					continue
				}
				select {
				case s.ch <- records[i]:
					h.delivered.Add(1)
				default:
					s.dropped.Add(1)
					h.dropped.Add(1)
				}
			}
		}
	}
}

// Stats returns a snapshot of subscription counters.
func (h *Hub) Stats() HubStats {
	h.mu.RLock()
	n := len(h.subs)
	h.mu.RUnlock()
	return HubStats{
		Subscribers: n,
		Delivered:   h.delivered.Load(),
		Dropped:     h.dropped.Load(),
	}
}

// Close ends every subscription (closing the subscriber channels) and
// rejects future ones.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		close(s.ch)
		s.finish()
		delete(h.subs, s)
	}
}

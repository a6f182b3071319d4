package translate

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/provlight/provlight/internal/provdm"
)

func hubRecords(n int) []Frame {
	frames := make([]Frame, 0, n)
	for i := 0; i < n; i++ {
		frames = append(frames, Frame{Records: []provdm.Record{{
			Event:          provdm.EventTaskEnd,
			WorkflowID:     "w",
			TaskID:         fmt.Sprintf("t%d", i),
			Transformation: "tr",
			Time:           time.Unix(int64(i), 0),
		}}})
	}
	return frames
}

func TestHubSlowConsumerDrops(t *testing.T) {
	h := NewHub()
	ch, cancel := h.Subscribe(context.Background(), Filter{Buffer: 4})
	defer cancel()

	// Publish 10 records without a reader: 4 fill the bounded buffer, the
	// remaining 6 are dropped (documented slow-consumer semantics).
	h.Publish(hubRecords(10))

	st := h.Stats()
	if st.Delivered != 4 {
		t.Errorf("delivered = %d, want 4", st.Delivered)
	}
	if st.Dropped != 6 {
		t.Errorf("dropped = %d, want 6", st.Dropped)
	}
	if st.Subscribers != 1 {
		t.Errorf("subscribers = %d, want 1", st.Subscribers)
	}
	// The survivors are the oldest 4, in order.
	for i := 0; i < 4; i++ {
		rec := <-ch
		if rec.TaskID != fmt.Sprintf("t%d", i) {
			t.Errorf("record %d = %s, want t%d", i, rec.TaskID, i)
		}
	}
}

func TestHubKeepingUpLosesNothing(t *testing.T) {
	h := NewHub()
	ch, cancel := h.Subscribe(context.Background(), Filter{Buffer: 64})
	defer cancel()

	var got []provdm.Record
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rec := range ch {
			got = append(got, rec)
		}
	}()
	h.Publish(hubRecords(50))
	cancel()
	wg.Wait()
	if len(got) != 50 {
		t.Fatalf("received %d records, want 50", len(got))
	}
	if st := h.Stats(); st.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", st.Dropped)
	}
}

func TestHubFilters(t *testing.T) {
	h := NewHub()
	byWorkflow, cancel1 := h.Subscribe(context.Background(), Filter{Workflow: "w"})
	defer cancel1()
	otherWorkflow, cancel2 := h.Subscribe(context.Background(), Filter{Workflow: "nope"})
	defer cancel2()
	byEvent, cancel3 := h.Subscribe(context.Background(), Filter{
		Events: []provdm.EventKind{provdm.EventTaskBegin},
	})
	defer cancel3()
	byTask, cancel4 := h.Subscribe(context.Background(), Filter{TaskID: "t2"})
	defer cancel4()

	h.Publish(hubRecords(5)) // all EventTaskEnd, workflow "w"

	if n := len(byWorkflow); n != 5 {
		t.Errorf("workflow filter received %d, want 5", n)
	}
	if n := len(otherWorkflow); n != 0 {
		t.Errorf("mismatched workflow filter received %d, want 0", n)
	}
	if n := len(byEvent); n != 0 {
		t.Errorf("task.begin filter received %d task.end records", n)
	}
	if n := len(byTask); n != 1 {
		t.Errorf("task filter received %d, want 1", n)
	}
}

func TestHubContextCancelClosesChannel(t *testing.T) {
	h := NewHub()
	ctx, cancelCtx := context.WithCancel(context.Background())
	ch, cancel := h.Subscribe(ctx, Filter{})
	defer cancel()

	cancelCtx()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				if st := h.Stats(); st.Subscribers != 0 {
					t.Errorf("subscribers = %d after ctx cancel, want 0", st.Subscribers)
				}
				return
			}
		case <-deadline:
			t.Fatal("channel not closed after ctx cancel")
		}
	}
}

func TestHubCancelIdempotentAndClose(t *testing.T) {
	h := NewHub()
	ch, cancel := h.Subscribe(context.Background(), Filter{})
	cancel()
	cancel() // must not panic
	if _, ok := <-ch; ok {
		t.Error("channel should be closed after cancel")
	}

	ch2, cancel2 := h.Subscribe(context.Background(), Filter{})
	h.Close()
	if _, ok := <-ch2; ok {
		t.Error("channel should be closed after hub Close")
	}
	cancel2() // after Close: must not panic
	// Subscribing to a closed hub yields an already-closed channel.
	ch3, cancel3 := h.Subscribe(context.Background(), Filter{})
	if _, ok := <-ch3; ok {
		t.Error("subscribe on closed hub should return a closed channel")
	}
	cancel3()
}

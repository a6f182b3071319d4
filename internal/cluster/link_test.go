package cluster

import (
	"reflect"
	"testing"
)

// TestRetainedTableKeepsSendOrder: frames settled out of order leave the
// others retained in send order, settling a frame twice or one already
// gone releases nothing, and the settled front of the table is popped.
func TestRetainedTableKeepsSendOrder(t *testing.T) {
	n := &Node{fwdPending: map[int]int{}}
	l := &link{n: n}
	for i := 0; i < 5; i++ {
		l.unacked = append(l.unacked, retainedFrame{queuedFrame: queuedFrame{part: i}, seq: uint64(10 + i)})
		n.fwdPending[i]++
	}
	retained := func() []int {
		var parts []int
		for _, rf := range l.retainedLocked() {
			parts = append(parts, rf.part)
		}
		return parts
	}
	l.settle(12, 2)
	l.settle(10, 0)
	l.settle(10, 0)
	l.settle(3, 0)
	if got, want := retained(), []int{1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("retained parts %v, want %v", got, want)
	}
	if len(l.unacked) != 4 {
		t.Errorf("table holds %d entries, want 4 (the settled front popped)", len(l.unacked))
	}
	l.settle(11, 1)
	if got, want := retained(), []int{3, 4}; !reflect.DeepEqual(got, want) || len(l.unacked) != 2 {
		t.Errorf("retained parts %v in %d entries, want %v in 2", got, len(l.unacked), want)
	}
	if want := map[int]int{0: 0, 1: 0, 2: 0, 3: 1, 4: 1}; !reflect.DeepEqual(n.fwdPending, want) {
		t.Errorf("pending counts %v, want %v", n.fwdPending, want)
	}
}

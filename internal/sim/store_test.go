package sim

import (
	"container/heap"
	"time"
)

// heapStore is the reference event store: one binary heap ordered by
// (at, id). Correct at any scale, but every operation costs O(log n) in
// the total pending-event count — the bottleneck the timer wheel
// removes for million-node deployments. The differential tests in
// wheel_test.go hold the wheel, and the Clock dispatching from it, to
// this order.
type heapStore struct {
	q eventQueue
}

func (h *heapStore) push(e *event) { heap.Push(&h.q, e) }

func (h *heapStore) pop(limit time.Duration) *event {
	for len(h.q) > 0 {
		e := h.q[0]
		if !e.canceled && e.at > limit {
			return nil
		}
		heap.Pop(&h.q)
		if !e.canceled {
			return e
		}
	}
	return nil
}

func (h *heapStore) next() (time.Duration, bool) {
	for len(h.q) > 0 {
		if h.q[0].canceled {
			heap.Pop(&h.q)
			continue
		}
		return h.q[0].at, true
	}
	return 0, false
}

// newReferenceClock returns a virtual clock backed by the reference
// heap store: for any schedule it must produce the same event order as
// the wheel-backed clock NewClock returns.
func newReferenceClock() *Clock { return &Clock{events: &heapStore{}} }

package sim

import "time"

// eventStore holds a Clock's pending events in (time, schedule-id) order.
// The Clock uses wheelStore (wheel.go), a hierarchical timer wheel; the
// differential tests in wheel_test.go hold it to the exact total order
// of a plain binary heap, the executable reference, across millions of
// randomized schedules.
//
// Stores are not safe for concurrent use; the Clock serializes access
// under its mutex. Canceled events are discarded lazily whenever a store
// operation encounters them; callers never see them.
type eventStore interface {
	// push inserts a scheduled event. The event's at and id are set and
	// id is strictly greater than that of any previously pushed event.
	push(e *event)
	// pop removes and returns the earliest live event if its time is at
	// or before limit, or nil when no such event remains.
	pop(limit time.Duration) *event
	// next returns the earliest live event's time without removing it.
	next() (time.Duration, bool)
}

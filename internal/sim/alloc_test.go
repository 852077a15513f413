package sim

import "testing"

// TestClockAllocs pins the heap allocations of the clock's three basic
// hand-offs, so a change that puts a closure, a channel or a goroutine
// back on the dispatch path fails here rather than only in a profile.
//
//   - sleep: one Sleep(0) by a running task, whose own resume is the
//     next event, so it keeps the CPU without a goroutine switch.
//   - go-wake-wait: a task starts a child with Go, the child Wakes a
//     waiter, the task Waits on it.
//   - go-run: a Go task run to completion by Run.
func TestClockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 200
	c := NewClock()
	var sleep, roundTrip float64
	c.RunTask(func() {
		sleep = testing.AllocsPerRun(runs, func() { c.Sleep(0) })
		roundTrip = testing.AllocsPerRun(runs, func() {
			w := c.NewWaiter()
			c.Go(w.Wake)
			w.Wait(-1)
		})
	})
	goRun := testing.AllocsPerRun(runs, func() {
		c.Go(func() {})
		c.Run()
	})
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"sleep", sleep, 2},
		{"go-wake-wait", roundTrip, 9},
		{"go-run", goRun, 5},
	} {
		t.Logf("%s: %.0f allocs", tc.name, tc.got)
		if tc.got > tc.want {
			t.Errorf("%s allocates %.0f times, want at most %.0f", tc.name, tc.got, tc.want)
		}
	}
}

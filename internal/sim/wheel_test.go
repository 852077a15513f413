package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The timer wheel is only correct if it is indistinguishable from the
// reference heap: for any schedule, both stores (and both clocks built
// on them) must produce byte-identical event orders. These tests push a
// million randomized schedules through the pair — including same-tick
// AfterFunc chains, cancellations, and RunUntil window fast-forwards —
// and fail on the first divergence.

// diffSize returns the schedule count: a full million normally, scaled
// down under -short so tier-1 `go test ./...` stays fast.
func diffSize(full int) int {
	if testing.Short() {
		return full / 20
	}
	return full
}

// TestStoreDifferential drives heapStore and wheelStore with one
// identical randomized op stream — pushes across all three residency
// classes (level 0, level 1, overflow), pops with and without a time
// limit, peeks, and cancellations — and requires identical pop sequences
// event-for-event.
func TestStoreDifferential(t *testing.T) {
	const seed = 8
	pushes := diffSize(1_000_000)
	rng := rand.New(rand.NewSource(seed))

	ref := &heapStore{}
	wheel := newWheelStore()
	// Both stores hold pointers to the same event objects: neither store
	// writes to an event, so sharing keeps cancellation atomic across the
	// pair and lets pops be compared by identity.
	var pending []*event

	var id uint64
	var now time.Duration // time of the last popped event
	push := func(at time.Duration) {
		id++
		e := &event{at: at, id: id}
		ref.push(e)
		wheel.push(e)
		pending = append(pending, e)
	}
	popBoth := func(limit time.Duration) bool {
		a, b := ref.pop(limit), wheel.pop(limit)
		if a != b {
			t.Fatalf("pop(%v) diverged after %d ids: heap=%v wheel=%v", limit, id, evString(a), evString(b))
		}
		if a == nil {
			return false
		}
		// The op stream may push duplicates of already-popped times, so
		// pops are not globally monotone; the heap is the order oracle.
		// Track the frontier for the push-time distribution only.
		if a.at > now {
			now = a.at
		}
		return true
	}

	// Spread pushes across the wheel's residency classes relative to the
	// current pop frontier: same-tick ties, level-0 (<4 ms), level-1
	// (<17 s), and far overflow (minutes out).
	randomAt := func() time.Duration {
		switch rng.Intn(10) {
		case 0, 1, 2:
			return now + time.Duration(rng.Int63n(int64(4*time.Millisecond)))
		case 3, 4, 5:
			return now + time.Duration(rng.Int63n(int64(17*time.Second)))
		case 6, 7:
			return now + time.Duration(rng.Int63n(int64(10*time.Minute)))
		case 8:
			return now // exact tie on the frontier
		default:
			// Duplicate a pending event's time: equal-time events must
			// pop in schedule-id order.
			if len(pending) > 0 {
				return pending[rng.Intn(len(pending))].at
			}
			return now
		}
	}

	for int(id) < pushes {
		switch op := rng.Intn(10); {
		case op < 6: // push
			push(randomAt())
		case op < 7: // pop
			popBoth(forever)
		case op < 8: // pop bounded by a limit near the frontier, as a
			// RunUntil or ShardRunner window does
			popBoth(now + time.Duration(rng.Int63n(int64(8*time.Millisecond))))
		case op < 9: // cancel a random pending event
			if len(pending) > 0 {
				i := rng.Intn(len(pending))
				pending[i].canceled = true
				pending[i] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
			}
		default: // peek
			at1, ok1 := ref.next()
			at2, ok2 := wheel.next()
			if at1 != at2 || ok1 != ok2 {
				t.Fatalf("next diverged: heap=(%v,%v) wheel=(%v,%v)", at1, ok1, at2, ok2)
			}
		}
	}
	for popBoth(forever) {
	}
}

func evString(e *event) string {
	if e == nil {
		return "<nil>"
	}
	return fmt.Sprintf("(at=%v id=%d)", e.at, e.id)
}

// TestStoreDifferentialBehindWindow reproduces the RunUntil
// fast-forward hazard directly: drain the stores far into the future so
// the wheel's windows advance, then push events that land behind the
// current level-1 window. The wheel must still pop them in global
// (time, id) order via the overflow-heap comparison.
func TestStoreDifferentialBehindWindow(t *testing.T) {
	ref := &heapStore{}
	wheel := newWheelStore()
	var id uint64
	push := func(at time.Duration) *event {
		id++
		e := &event{at: at, id: id}
		ref.push(e)
		wheel.push(e)
		return e
	}
	popBoth := func() *event {
		a, b := ref.pop(forever), wheel.pop(forever)
		if a != b {
			t.Fatalf("pop diverged: heap=%v wheel=%v", evString(a), evString(b))
		}
		return a
	}

	// A far event forces the wheel to re-seed its windows at ~1 hour
	// when popped.
	push(time.Hour)
	if e := popBoth(); e == nil || e.at != time.Hour {
		t.Fatalf("expected the far event, got %v", evString(e))
	}
	// These land whole windows behind the wheel's current anchor: they
	// must come back earliest-first anyway, interleaved correctly with
	// an in-window event.
	early := push(time.Minute)
	mid := push(30 * time.Minute)
	inWin := push(time.Hour + time.Millisecond)
	for _, want := range []*event{early, mid, inWin} {
		if got := popBoth(); got != want {
			t.Fatalf("order diverged: got %v want %v", evString(got), evString(want))
		}
	}
	if got := popBoth(); got != nil {
		t.Fatalf("expected empty stores, got %v", evString(got))
	}
}

// clockScript drives one Clock through a seeded workload exercising
// every scheduler entry point — AfterFunc chains that re-arm at the
// same tick, Timer.Stop cancellations, Sleep/Waiter parking, Waiter
// timeouts racing a Wake at the same instant, Step, RunTask, and
// RunUntil fast-forwards that strand the wheel's windows ahead of later
// pushes — and returns the execution trace. Two clocks given the same
// seed must return byte-identical traces.
func clockScript(c *Clock, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	logf := func(format string, args ...interface{}) {
		trace = append(trace, fmt.Sprintf("%d %s", c.Now(), fmt.Sprintf(format, args...)))
	}

	chains := diffSize(2_000)
	var chain func(id, step int)
	chain = func(id, step int) {
		logf("chain %d step %d", id, step)
		if step >= 5 {
			return
		}
		// One in three re-arms at delay zero: a same-tick AfterFunc
		// chain, the classic wheel-bucket ordering hazard.
		var d time.Duration
		switch rng.Intn(3) {
		case 0:
			d = 0
		case 1:
			d = time.Duration(rng.Int63n(int64(3 * time.Millisecond)))
		default:
			d = time.Duration(rng.Int63n(int64(20 * time.Second)))
		}
		tm := c.AfterFunc(d, func() { chain(id, step+1) })
		// Occasionally arm a decoy alongside and cancel it immediately.
		if rng.Intn(4) == 0 {
			decoy := c.AfterFunc(d, func() { logf("decoy %d fired (BUG unless uncanceled)", id) })
			if rng.Intn(2) == 0 {
				decoy.Stop()
			}
		}
		// Rarely cancel the chain itself.
		if rng.Intn(50) == 0 {
			tm.Stop()
			logf("chain %d stopped at step %d", id, step)
		}
	}
	for i := 0; i < chains; i++ {
		start := time.Duration(rng.Int63n(int64(40 * time.Second)))
		i := i
		c.At(start, func() { chain(i, 0) })
	}
	// A few sleeper tasks interleave Sleep and Waiter timeouts with the
	// chains. Each sleeper's waker lands before, at, or after its Wait
	// deadline; at the deadline instant the event scheduled first wins,
	// so a waker armed before Wait beats the timeout and one armed after
	// Wait (from a task that runs once the sleeper parks) loses to it.
	for i := 0; i < 16; i++ {
		i := i
		start := time.Duration(rng.Int63n(int64(10 * time.Second)))
		c.At(start, func() {
			for s := 0; s < 4; s++ {
				c.Sleep(time.Duration(i+1) * 777 * time.Millisecond)
				logf("sleeper %d tick %d", i, s)
			}
			const timeout = 5 * time.Second
			w := c.NewWaiter()
			wake := func() { w.Wake(); logf("sleeper %d waker ran", i) }
			switch i % 4 {
			case 0:
				c.After(timeout, wake)
			case 1:
				c.Go(func() { c.After(timeout, wake) })
			case 2:
				c.After(timeout/2, wake)
			default:
				c.After(2*timeout, wake)
			}
			if w.Wait(timeout) {
				logf("sleeper %d woken", i)
			} else {
				logf("sleeper %d wait timed out", i)
			}
		})
	}

	// Drain in RunUntil hops with growing gaps, a few single Steps
	// between them, pushing fresh events after each hop — some land
	// behind wherever the wheel's windows ended up.
	var deadline time.Duration
	for hop := 0; deadline < 2*time.Minute; hop++ {
		deadline += time.Duration(rng.Int63n(int64(20 * time.Second)))
		c.RunUntil(deadline)
		for k := rng.Intn(4); k > 0; k-- {
			c.Step()
		}
		hop := hop
		at := c.Now() + time.Duration(rng.Int63n(int64(time.Second)))
		c.At(at, func() { logf("hop %d extra", hop) })
	}
	// A root task bounds the next drive: the chains still pending when
	// it returns are left for Run.
	c.RunTask(func() {
		c.Sleep(10 * time.Second)
		logf("root done")
	})
	c.Run()
	return trace
}

// TestClockDifferential runs the full scheduler workload on the wheel
// clock and the reference heap clock and requires byte-identical
// execution traces — the end-to-end version of the store test, through
// every Clock entry point.
func TestClockDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		wheel := clockScript(NewClock(), seed)
		ref := clockScript(newReferenceClock(), seed)
		if len(wheel) != len(ref) {
			t.Fatalf("seed %d: trace lengths diverged: wheel=%d ref=%d", seed, len(wheel), len(ref))
		}
		for i := range wheel {
			if wheel[i] != ref[i] {
				t.Fatalf("seed %d: traces diverged at %d:\n  wheel: %s\n  ref:   %s", seed, i, wheel[i], ref[i])
			}
		}
	}
}

// BenchmarkStorePushPop measures raw store throughput: N pending events
// pushed then drained, the event-queue half of the simulator's hot
// loop.
func BenchmarkStorePushPop(b *testing.B) {
	for _, impl := range []struct {
		name string
		mk   func() eventStore
	}{
		{"wheel", func() eventStore { return newWheelStore() }},
		{"heap", func() eventStore { return &heapStore{} }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			const n = 100_000
			rng := rand.New(rand.NewSource(1))
			at := make([]time.Duration, n)
			for i := range at {
				at[i] = time.Duration(rng.Int63n(int64(30 * time.Second)))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := impl.mk()
				for j := 0; j < n; j++ {
					s.push(&event{at: at[j], id: uint64(j + 1)})
				}
				for s.pop(forever) != nil {
				}
			}
			b.SetBytes(n)
		})
	}
}

package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClockTaskSleepInterleaving: tasks park at Sleep and interleave in
// virtual-time order, not spawn order.
func TestClockTaskSleepInterleaving(t *testing.T) {
	c := NewClock()
	var trace []string
	c.Go(func() {
		trace = append(trace, fmt.Sprintf("a0@%v", c.Now()))
		c.Sleep(30 * time.Millisecond)
		trace = append(trace, fmt.Sprintf("a1@%v", c.Now()))
	})
	c.Go(func() {
		trace = append(trace, fmt.Sprintf("b0@%v", c.Now()))
		c.Sleep(10 * time.Millisecond)
		trace = append(trace, fmt.Sprintf("b1@%v", c.Now()))
	})
	c.Run()
	want := "[a0@0s b0@0s b1@10ms a1@30ms]"
	if got := fmt.Sprint(trace); got != want {
		t.Fatalf("trace = %v, want %v", got, want)
	}
}

// TestClockDeterministicTrace: an interleaved workload produces the
// identical trace on every run.
func TestClockDeterministicTrace(t *testing.T) {
	run := func() string {
		c := NewClock()
		var trace []string
		for i := 0; i < 5; i++ {
			i := i
			c.Go(func() {
				for j := 0; j < 3; j++ {
					c.Sleep(time.Duration(1+(i+j)%3) * time.Millisecond)
					trace = append(trace, fmt.Sprintf("%d.%d@%v", i, j, c.Now()))
				}
			})
		}
		c.Run()
		return fmt.Sprint(trace)
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged:\n%s\n%s", i, first, got)
		}
	}
}

func TestClockRunTask(t *testing.T) {
	c := NewClock()
	var tail int32
	// A background chain that ticks forever: RunTask must stop at root
	// completion rather than draining it.
	var tick func()
	tick = func() { atomic.AddInt32(&tail, 1); c.After(time.Second, tick) }
	c.After(time.Second, tick)
	total := time.Duration(0)
	c.RunTask(func() {
		for i := 0; i < 3; i++ {
			c.Sleep(2 * time.Second)
			total = c.Now()
		}
	})
	if total != 6*time.Second {
		t.Errorf("root finished at %v, want 6s", total)
	}
	if n := atomic.LoadInt32(&tail); n < 5 || n > 6 {
		t.Errorf("background chain ticked %d times, want 5-6", n)
	}
	if c.Pending() == 0 {
		t.Error("background chain should still have a pending event")
	}
}

func TestClockSleepCtxCanceled(t *testing.T) {
	c := NewClock()
	ctx, cancel := context.WithCancel(context.Background())
	var got error
	c.Go(func() {
		c.Go(func() { cancel() }) // cancels while the sibling sleeps
		got = c.SleepCtx(ctx, 50*time.Millisecond)
	})
	c.Run()
	if got != context.Canceled {
		t.Errorf("SleepCtx = %v, want context.Canceled", got)
	}
	if c.Now() != 50*time.Millisecond {
		t.Errorf("virtual cancellation observed at %v, want at wake (50ms)", c.Now())
	}
}

func TestClockAfterFuncStop(t *testing.T) {
	c := NewClock()
	ran := false
	tm := c.AfterFunc(time.Second, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer = false")
	}
	if tm.Stop() {
		t.Fatal("second Stop = true")
	}
	c.Run()
	if ran {
		t.Fatal("stopped timer fired")
	}
}

func TestClockJoinOrderAndCompletion(t *testing.T) {
	c := NewClock()
	var order []int
	c.RunTask(func() {
		var fns []func()
		for i := 0; i < 4; i++ {
			i := i
			fns = append(fns, func() {
				c.Sleep(time.Duration(4-i) * time.Millisecond)
				order = append(order, i)
			})
		}
		c.Join(2, fns...)
		if c.Now() != 4*time.Millisecond {
			t.Errorf("Join returned at %v, want 4ms (slowest child)", c.Now())
		}
	})
	if fmt.Sprint(order) != "[3 2 1 0]" {
		t.Errorf("children completed in %v, want wake order [3 2 1 0]", order)
	}
}

func TestClockWaiterWakeBeatsDeadline(t *testing.T) {
	c := NewClock()
	woken := false
	c.RunTask(func() {
		w := c.NewWaiter()
		c.After(10*time.Millisecond, func() { w.Wake() })
		woken = w.Wait(time.Second)
	})
	if !woken {
		t.Fatal("Wait = false, want woken")
	}
	if c.Now() != 10*time.Millisecond {
		t.Errorf("woke at %v, want 10ms", c.Now())
	}
}

func TestClockWaiterTimeout(t *testing.T) {
	c := NewClock()
	woken := true
	c.RunTask(func() {
		w := c.NewWaiter()
		c.After(time.Second, func() { w.Wake() }) // too late
		woken = w.Wait(100 * time.Millisecond)
	})
	if woken {
		t.Fatal("Wait = true, want timeout")
	}
	if c.Now() < 100*time.Millisecond {
		t.Errorf("timed out at %v, want >= 100ms", c.Now())
	}
}

func TestClockWaiterWakeBeforeWait(t *testing.T) {
	c := NewClock()
	woken := false
	c.RunTask(func() {
		w := c.NewWaiter()
		w.Wake()
		woken = w.Wait(-1)
	})
	if !woken {
		t.Fatal("Wake before Wait was lost")
	}
}

func TestClockBlockingOutsideTaskPanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Error("Sleep outside a task did not panic")
		}
	}()
	c.Sleep(time.Second)
}

func TestClockRunPanicsOnDeadlock(t *testing.T) {
	c := NewClock()
	c.Go(func() { c.NewWaiter().Wait(-1) }) // nobody will wake it
	defer func() {
		if recover() == nil {
			t.Error("Run with a stranded task did not panic")
		}
	}()
	c.Run()
}

func TestWallSchedulerBasics(t *testing.T) {
	w := NewWall()
	if err := w.SleepCtx(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("SleepCtx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.SleepCtx(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("SleepCtx canceled = %v", err)
	}

	var mu sync.Mutex
	running, peak := 0, 0
	var fns []func()
	for i := 0; i < 8; i++ {
		fns = append(fns, func() {
			mu.Lock()
			running++
			if running > peak {
				peak = running
			}
			mu.Unlock()
			w.Sleep(5 * time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
		})
	}
	w.Join(2, fns...)
	if peak > 2 {
		t.Errorf("Join(2) peak concurrency %d, want <= 2", peak)
	}

	wait := w.NewWaiter()
	if wait.Wait(time.Millisecond) {
		t.Error("Wait without Wake = true")
	}
	wait2 := w.NewWaiter()
	wait2.Wake()
	wait2.Wake() // extra wakes are no-ops
	if !wait2.Wait(-1) {
		t.Error("Wake before Wait lost")
	}

	tm := w.AfterFunc(time.Hour, func() {})
	if !tm.Stop() {
		t.Error("Stop on pending wall timer = false")
	}
}

// TestClockStepRunsOneEvent: Step runs exactly one event, also when the
// event after it is the running task's own resume, which the task would
// otherwise take without giving up the CPU.
func TestClockStepRunsOneEvent(t *testing.T) {
	c := NewClock()
	ticks := 0
	c.Go(func() {
		for i := 0; i < 3; i++ {
			ticks++
			c.Sleep(0) // its resume is the only pending event
		}
	})
	for step := 1; step <= 4; step++ {
		if !c.Step() {
			t.Fatalf("step %d ran nothing", step)
		}
		if got := c.Executed(); got != uint64(step) {
			t.Fatalf("after step %d: executed = %d", step, got)
		}
		if want := step; want <= 3 && ticks != want {
			t.Fatalf("after step %d: task ticked %d times, want %d", step, ticks, want)
		}
	}
	if c.Pending() != 0 || c.Step() {
		t.Fatal("task should have finished on the fourth step")
	}
}

// TestClockRunTaskLeavesLaterEventsUnrun: RunTask returns as soon as the
// root task ends, leaving later events unrun, even one due at that same
// instant.
func TestClockRunTaskLeavesLaterEventsUnrun(t *testing.T) {
	c := NewClock()
	var ran []string
	c.After(5*time.Millisecond, func() { ran = append(ran, "early") })
	c.After(20*time.Millisecond, func() { ran = append(ran, "late") })
	n := c.RunTask(func() {
		c.Sleep(10 * time.Millisecond)
		c.Go(func() { ran = append(ran, "same-instant") })
	})
	// Root start, early, root resume.
	if n != 3 {
		t.Errorf("RunTask ran %d events, want 3", n)
	}
	if fmt.Sprint(ran) != "[early]" || c.Now() != 10*time.Millisecond {
		t.Errorf("ran %v by %v, want [early] by 10ms", ran, c.Now())
	}
	if c.Pending() != 2 {
		t.Errorf("pending = %d, want 2 (same-instant and late)", c.Pending())
	}
	c.Run()
	if fmt.Sprint(ran) != "[early same-instant late]" {
		t.Errorf("after Run: %v", ran)
	}
}

// TestClockRunUntilStopsAtDeadline: RunUntil runs events due at or
// before its deadline, including a task's resume, and leaves the clock
// at exactly the deadline.
func TestClockRunUntilStopsAtDeadline(t *testing.T) {
	c := NewClock()
	var trace []string
	c.Go(func() {
		for i := 0; i < 3; i++ {
			c.Sleep(7 * time.Millisecond)
			trace = append(trace, fmt.Sprintf("wake@%v", c.Now()))
		}
	})
	c.After(10*time.Millisecond, func() { trace = append(trace, "at-deadline") })
	if n := c.RunUntil(10 * time.Millisecond); n != 3 {
		t.Errorf("RunUntil(10ms) ran %d events, want 3", n)
	}
	if c.Now() != 10*time.Millisecond {
		t.Errorf("now = %v, want 10ms", c.Now())
	}
	if n := c.RunUntil(12 * time.Millisecond); n != 0 || c.Now() != 12*time.Millisecond {
		t.Errorf("RunUntil(12ms) ran %d events, now %v; want 0 and 12ms", n, c.Now())
	}
	c.Run()
	if want := "[wake@7ms at-deadline wake@14ms wake@21ms]"; fmt.Sprint(trace) != want {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

// TestClockDeadlockPanicsAfterHandOff: a deadlock is still reported
// when the last task to give up the CPU is not the stranded one, and
// RunTask reports a root task that can never finish.
func TestClockDeadlockPanicsAfterHandOff(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s with a stranded task did not panic", name)
			}
		}()
		fn()
	}
	c := NewClock()
	c.Go(func() { c.NewWaiter().Wait(-1) })
	c.Go(func() { c.Sleep(time.Millisecond) })
	mustPanic("Run", func() { c.Run() })

	c = NewClock()
	mustPanic("RunTask", func() { c.RunTask(func() { c.NewWaiter().Wait(-1) }) })
}

// TestClockBlockingFromRawGoroutinePanics: a goroutine the clock did not
// start cannot block on it, before a drive or between two of its events.
func TestClockBlockingFromRawGoroutinePanics(t *testing.T) {
	c := NewClock()
	blockOutside := func(op func()) interface{} {
		got := make(chan interface{})
		go func() {
			defer func() { got <- recover() }()
			op()
		}()
		return <-got
	}
	if blockOutside(func() { c.Sleep(time.Second) }) == nil {
		t.Error("Sleep from a raw goroutine did not panic")
	}
	if blockOutside(func() { c.NewWaiter().Wait(time.Second) }) == nil {
		t.Error("Waiter.Wait from a raw goroutine did not panic")
	}
	// Between two Steps no task holds the CPU either.
	c.Go(func() {})
	c.Step()
	if blockOutside(func() { c.Sleep(0) }) == nil {
		t.Error("Sleep from a raw goroutine between events did not panic")
	}
}

// TestClockWaiterTimeoutTiesWake: when a waiter's deadline and a Wake
// fall on the same instant, the event scheduled first wins — a Wake
// armed before Wait beats the timeout, one armed after Wait loses to it
// — on the wheel clock and the reference clock alike.
func TestClockWaiterTimeoutTiesWake(t *testing.T) {
	const timeout = 50 * time.Millisecond
	run := func(c *Clock, wakeFirst bool) (bool, time.Duration) {
		var woken bool
		c.RunTask(func() {
			w := c.NewWaiter()
			if wakeFirst {
				c.After(timeout, w.Wake)
			} else {
				c.Go(func() { c.After(timeout, w.Wake) }) // runs once Wait has parked
			}
			woken = w.Wait(timeout)
		})
		return woken, c.Now()
	}
	for _, wakeFirst := range []bool{true, false} {
		gotW, gotAt := run(NewClock(), wakeFirst)
		refW, refAt := run(newReferenceClock(), wakeFirst)
		if gotW != refW || gotAt != refAt {
			t.Errorf("wakeFirst=%v: clock (woken %v at %v), reference (woken %v at %v)", wakeFirst, gotW, gotAt, refW, refAt)
		}
		if gotW != wakeFirst || gotAt != timeout {
			t.Errorf("wakeFirst=%v: woken %v at %v, want %v at %v", wakeFirst, gotW, gotAt, wakeFirst, timeout)
		}
	}
}

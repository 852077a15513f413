package sim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// Clock is a virtual simulation clock and deterministic task scheduler —
// the virtual implementation of Scheduler. Actors schedule events at
// absolute virtual times; Step/Run/RunUntil/RunTask drain the event
// queue in time order. The zero value is ready to use at virtual time
// zero.
//
// Execution model: every scheduled callback (After, AfterFunc, Go, Join)
// runs as a *task* — a goroutine that holds the clock's single virtual
// CPU. Exactly one goroutine holds the CPU at a time; a task gives it up
// only at scheduler calls (Sleep, SleepCtx, Join, Waiter.Wait) or by
// finishing. There is no event-loop goroutine: the goroutine giving up
// the CPU pops the next event in (time, schedule-order) sequence itself
// and hands the CPU straight to the task that event names — waking a
// parked task, spawning a new one, or simply returning when the event is
// its own resume. Only when nothing is due within the bound of the
// running Step/Run/RunUntil/RunTask does the CPU go back to the caller
// that drives the clock. Because interleaving points are explicit and
// the event order is a pure function of the schedule, a whole-stack run
// over the virtual clock is deterministic: same seed, same
// byte-identical trace — no matter the host, GOMAXPROCS, or run count.
//
// Clock methods are safe for concurrent use, but the blocking calls
// (Sleep, Join, Waiter.Wait) must come from scheduler tasks; calling
// them from an untracked goroutine panics rather than deadlocking.
type Clock struct {
	mu       sync.Mutex
	now      time.Duration
	events   eventStore // pending events; nil until first use (zero value)
	live     int        // pending events not canceled — Pending() in O(1)
	nextID   uint64
	executed uint64
	current  *task // task holding the virtual CPU (nil while the driver holds it)
	tasks    int   // live tasks: started (or queued to start) and not finished

	// The bound of the drive in progress (see drive): events after limit,
	// or past the stopAt-th executed event, or once halt is set, are left
	// for the next drive and the CPU returns to the driver over driver.
	limit  time.Duration
	stopAt uint64
	halt   bool
	driver chan struct{}
}

// NewClock returns a virtual clock at time zero, backed by the
// hierarchical timer-wheel event store (wheel.go).
func NewClock() *Clock { return &Clock{events: newWheelStore()} }

// storeLocked returns the event store, initializing the default wheel
// for zero-value Clocks. Called with c.mu held.
func (c *Clock) storeLocked() eventStore {
	if c.events == nil {
		c.events = newWheelStore()
	}
	return c.events
}

// task is one tracked goroutine, parked on wake whenever it does not
// hold the virtual CPU. The goroutine that hands it the CPU sends on
// wake; the buffer lets that send complete before the task has parked.
type task struct {
	wake chan struct{}
}

// event is one scheduled dispatch. Exactly one of start, resume and
// waiter is set: start a new task running start, hand the CPU back to
// the parked task resume, or time out waiter.
type event struct {
	at       time.Duration
	id       uint64 // tie-break so equal-time events run in schedule order
	start    func()
	resume   *task
	waiter   *clockWaiter
	canceled bool
	fired    bool
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// scheduleLocked enqueues e, whose at and dispatch field the caller
// has set, and returns it. Called with c.mu held.
func (c *Clock) scheduleLocked(e *event) *event {
	if e.at < c.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", e.at, c.now))
	}
	c.nextID++
	e.id = c.nextID
	c.storeLocked().push(e)
	c.live++
	return e
}

// startLocked schedules fn to start as a new task at absolute time at.
// Called with c.mu held.
func (c *Clock) startLocked(at time.Duration, fn func()) *event {
	c.tasks++
	return c.scheduleLocked(&event{at: at, start: fn})
}

// cancelLocked marks a pending event canceled; the store discards it
// lazily. Called with c.mu held.
func (c *Clock) cancelLocked(e *event) {
	e.canceled = true
	c.live--
}

// At schedules fn to run at absolute virtual time at. The callback runs
// as its own task. Scheduling in the past panics: that is always a
// protocol bug, not a recoverable condition.
func (c *Clock) At(at time.Duration, fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.startLocked(at, fn)
}

// After schedules fn to run d after the current virtual time.
func (c *Clock) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.startLocked(c.now+d, fn)
}

// AfterFunc implements Scheduler: After with a cancelable handle.
func (c *Clock) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return &clockTimer{c: c, e: c.startLocked(c.now+d, fn)}
}

// clockTimer cancels a pending task event.
type clockTimer struct {
	c *Clock
	e *event
}

func (t *clockTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.e.canceled || t.e.fired {
		return false
	}
	t.c.cancelLocked(t.e)
	t.c.tasks-- // the task will never start
	return true
}

// Go implements Scheduler: fn runs as a task at the current virtual
// time, after the caller next yields.
func (c *Clock) Go(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.startLocked(c.now, fn)
}

// handoffLocked gives up the virtual CPU held by the calling goroutine:
// it pops the next event due within the drive's bound and hands the CPU
// to the task that event names. self is the caller's own task, or nil
// for the driver and for a finished task. Called with c.mu held; returns
// with it released, naming the new holder of the CPU: self when the next
// event was self's own resume (the caller keeps running), nil when
// nothing is due and the CPU belongs to the driver again. A caller that
// gets back any other task has handed the CPU over and must park.
func (c *Clock) handoffLocked(self *task) *task {
	for !c.halt && c.executed < c.stopAt {
		e := c.storeLocked().pop(c.limit)
		if e == nil {
			break
		}
		e.fired = true
		c.now = e.at
		c.live--
		c.executed++
		t := e.resume
		switch {
		case e.start != nil:
			t = &task{wake: make(chan struct{}, 1)}
			c.current = t
			c.mu.Unlock()
			go c.run(e.start)
			return t
		case e.waiter != nil:
			// A Waiter deadline: time out the waiting task, unless a
			// Wake already claimed it.
			w := e.waiter
			t, w.waiting, w.deadline, w.timedOut = w.waiting, nil, nil, true
			if t == nil {
				continue
			}
		}
		c.current = t
		c.mu.Unlock()
		if t != self {
			t.wake <- struct{}{}
		}
		return t
	}
	c.current = nil
	c.mu.Unlock()
	return nil
}

// run is the body of a task goroutine. It starts out holding the
// virtual CPU and, once fn returns, passes the CPU on.
func (c *Clock) run(fn func()) {
	fn()
	c.mu.Lock()
	c.tasks--
	if c.handoffLocked(nil) == nil {
		c.driver <- struct{}{}
	}
}

// yieldLocked parks the calling task t, which holds the CPU, until an
// event hands the CPU back to it. Called with c.mu held; returns with it
// released.
func (c *Clock) yieldLocked(t *task) {
	switch c.handoffLocked(t) {
	case t:
		return
	case nil:
		c.driver <- struct{}{}
	}
	<-t.wake
}

// mustCurrentLocked returns the running task or panics with a pointed
// message — raw goroutines must not block on the virtual clock.
func (c *Clock) mustCurrentLocked(op string) *task {
	if c.current == nil {
		c.mu.Unlock()
		panic("sim: " + op + " called outside a scheduler task (start the caller with Go/After/RunTask)")
	}
	return c.current
}

// Sleep implements Scheduler: the calling task parks for d of virtual
// time while other tasks run.
func (c *Clock) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	t := c.mustCurrentLocked("Sleep")
	c.scheduleLocked(&event{at: c.now + d, resume: t})
	c.yieldLocked(t)
}

// SleepCtx implements Scheduler. Cancellation is observed at the wake
// instant: virtual sleeps cost nothing, and a deterministic wake point
// keeps the event order reproducible.
func (c *Clock) SleepCtx(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.Sleep(d)
	return ctx.Err()
}

// Join implements Scheduler: each fn runs as a task (serially, in
// argument order — virtual tasks never overlap) and Join returns when
// the last one finishes. limit is ignored under the virtual clock.
func (c *Clock) Join(limit int, fns ...func()) {
	_ = limit
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	w := c.NewWaiter()
	var mu sync.Mutex
	remaining := len(fns)
	for _, fn := range fns {
		fn := fn
		c.Go(func() {
			fn()
			mu.Lock()
			remaining--
			last := remaining == 0
			mu.Unlock()
			if last {
				w.Wake()
			}
		})
	}
	w.Wait(-1)
}

// NewWaiter implements Scheduler.
func (c *Clock) NewWaiter() Waiter { return &clockWaiter{c: c} }

// clockWaiter parks one task until woken or timed out; the first of
// (Wake, deadline) wins deterministically by event order.
type clockWaiter struct {
	c        *Clock
	woken    bool
	timedOut bool
	waiting  *task
	deadline *event
}

func (w *clockWaiter) Wake() {
	c := w.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.woken || w.timedOut {
		return
	}
	w.woken = true
	t := w.waiting
	w.waiting = nil
	if t == nil {
		return // Wake before Wait: remembered by the woken flag
	}
	if w.deadline != nil {
		c.cancelLocked(w.deadline)
		w.deadline = nil
	}
	c.scheduleLocked(&event{at: c.now, resume: t})
}

func (w *clockWaiter) Wait(timeout time.Duration) bool {
	c := w.c
	c.mu.Lock()
	if w.woken {
		c.mu.Unlock()
		return true
	}
	if w.timedOut {
		c.mu.Unlock()
		return false
	}
	t := c.mustCurrentLocked("Waiter.Wait")
	w.waiting = t
	if timeout >= 0 {
		w.deadline = c.scheduleLocked(&event{at: c.now + timeout, waiter: w})
	}
	c.yieldLocked(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	return w.woken
}

// forever is the bound of a drive with no deadline.
const forever = time.Duration(math.MaxInt64)

// drive runs events until none is due within its bound — at or before
// limit, at most one event when single, and no further once RunTask's
// root task has ended — and returns how many ran. The calling goroutine
// holds the virtual CPU while no task does: it hands the CPU to the
// first due event and gets it back over c.driver when nothing more is
// due.
func (c *Clock) drive(limit time.Duration, single bool) int {
	c.mu.Lock()
	if c.current != nil {
		c.mu.Unlock()
		panic("sim: driving the clock while a task holds the virtual CPU")
	}
	if c.driver == nil {
		c.driver = make(chan struct{})
	}
	start := c.executed
	c.limit, c.stopAt, c.halt = limit, math.MaxUint64, false
	if single {
		c.stopAt = start + 1
	}
	if c.handoffLocked(nil) != nil {
		<-c.driver
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return int(c.executed - start)
}

// Step runs the earliest pending event, advancing the clock to its time
// and blocking until the stack quiesces again (the event's task parked
// or finished). It reports whether an event ran.
func (c *Clock) Step() bool { return c.drive(forever, true) > 0 }

// Run drains all pending events, including events scheduled by events.
// It returns the number of events executed, and panics if tasks remain
// parked with nothing left to wake them — a deadlock in the simulated
// protocol.
func (c *Clock) Run() int {
	n := c.drive(forever, false)
	c.mu.Lock()
	stuck := c.tasks
	c.mu.Unlock()
	if stuck > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d task(s) parked with an empty event queue", stuck))
	}
	return n
}

// RunTask runs fn as a task at the current virtual time and drives the
// clock until fn returns, leaving any later-scheduled events unrun
// (background loops simply stop ticking when the workload ends). It
// returns the number of events executed.
func (c *Clock) RunTask(fn func()) int {
	c.Go(func() {
		fn()
		c.mu.Lock()
		c.halt = true
		c.mu.Unlock()
	})
	n := c.drive(forever, false)
	c.mu.Lock()
	done := c.halt
	c.mu.Unlock()
	if !done {
		panic("sim: RunTask: root task parked with an empty event queue (deadlock)")
	}
	return n
}

// RunUntil drains events with time <= deadline, advancing the clock to
// exactly deadline afterwards. It returns the number of events executed.
func (c *Clock) RunUntil(deadline time.Duration) int {
	n := c.drive(deadline, false)
	c.mu.Lock()
	if c.now < deadline {
		c.now = deadline
	}
	c.mu.Unlock()
	return n
}

// Pending returns the number of scheduled events not yet run.
func (c *Clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// Executed returns the total number of events this clock has run — the
// scale harness's events/sec numerator.
func (c *Clock) Executed() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.executed
}

// NextEventTime returns the earliest pending event's virtual time, or
// false when the queue is empty. The sharded runner uses it to decide
// whether a shard has work inside the current lookahead window.
func (c *Clock) NextEventTime() (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.storeLocked().next()
}

// Interface compliance.
var _ Scheduler = (*Clock)(nil)

// Package simclock provides the virtual-time substrate used by the
// storage simulator.
//
// The paper's evaluation measures wall-clock execution time on a real
// testbed. This reproduction replaces the testbed with a discrete-event
// model: every I/O request has a service time derived from a device model
// (see package device), and devices are serialized resources. A Resource
// tracks the instant until which it is busy; a request arriving at logical
// time t starts at max(t, busyUntil) and completes at start+service. Each
// query stream advances its own logical clock, so concurrent streams
// contend for devices exactly the way concurrent queries contend for a
// shared disk.
package simclock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Duration is virtual time. It aliases time.Duration so device models can
// use familiar literals (time.Millisecond etc.) while remaining purely
// simulated.
type Duration = time.Duration

// Clock is a monotonically advancing virtual clock for one request stream.
// The zero value is a clock at time zero, ready to use. A Clock is also
// the stream's identity, and the handle the stream waits through (Park).
// Each piece of its state is one atomic word and no method takes a lock:
// the stream advances its clock once per tuple, while other streams and
// the scheduler read it.
type Clock struct {
	now atomic.Int64 // a Duration
	id  atomic.Int64
	pop atomic.Pointer[member]
}

// member holds the population a stream belongs to, so that one pointer
// swaps it.
type member struct{ p Population }

// Population is a closed set of streams that makes progress only once
// every member is blocked (iosched.Group dispatches that way): it has to
// be told when a member blocks where it cannot see, or it waits for that
// member forever.
type Population interface {
	// Park counts one member as blocked; it stays a member.
	Park()
	// Unpark takes back one Park.
	Unpark()
}

// SetPopulation makes the stream a member of p (nil: of none). A
// population calls it when the stream enrolls and leaves; it is the only
// record of the membership.
func (c *Clock) SetPopulation(p Population) { c.pop.Store(&member{p}) }

// Population returns the population the stream is a member of (nil:
// none, or a nil clock).
func (c *Clock) Population() Population {
	if c == nil {
		return nil
	}
	if m := c.pop.Load(); m != nil {
		return m.p
	}
	return nil
}

// Park tells the stream's population that the stream is about to block
// on something other than the population's own queues — a page lock, a
// commit batch's leader — and Unpark that it runs again. Every such
// wait of an engine stream is bracketed by the pair, or is a Mutex.
// Both cost nothing for a stream in no population, or for a nil clock.
func (c *Clock) Park() {
	if p := c.Population(); p != nil {
		p.Park()
	}
}

// Unpark ends the wait Park announced.
func (c *Clock) Unpark() {
	if p := c.Population(); p != nil {
		p.Unpark()
	}
}

// Mutex is a mutual-exclusion lock for streams, for anything a stream
// may hold across a device submission: a stream asleep in a sync.Mutex
// is not counted as blocked, so the holder's I/O would never be
// dispatched. A contended Lock parks the stream, and waiters get the
// lock in arrival order — sync.Mutex lets a running goroutine barge
// past a woken waiter, and a stream that keeps winning runs ahead of
// the others in real time, which shows in the simulated results.
type Mutex struct{ slot chan struct{} }

// NewMutex returns an unlocked Mutex.
func NewMutex() Mutex { return Mutex{slot: make(chan struct{}, 1)} }

// Lock takes the lock on behalf of c's stream (nil: of no stream).
func (m Mutex) Lock(c *Clock) {
	select {
	case m.slot <- struct{}{}:
	default:
		c.Park()
		m.slot <- struct{}{}
		c.Unpark()
	}
}

// Unlock releases the lock to the longest waiter.
func (m Mutex) Unlock() { <-m.slot }

// SetID assigns the stream identity used as the trace track for
// requests submitted on this clock. Sessions number their clocks
// sequentially at creation so traces of a fixed-seed run are stable.
func (c *Clock) SetID(id int64) { c.id.Store(id) }

// ID reports the stream identity assigned by SetID (0 if none).
func (c *Clock) ID() int64 { return c.id.Load() }

// Now returns the current virtual time.
func (c *Clock) Now() Duration { return Duration(c.now.Load()) }

// Advance moves the clock forward by d. Negative d is ignored so callers
// can pass raw deltas without clamping.
func (c *Clock) Advance(d Duration) {
	if d > 0 {
		c.now.Add(int64(d))
	}
}

// AdvanceTo moves the clock to t if t is later than the current time and
// returns the resulting time.
func (c *Clock) AdvanceTo(t Duration) Duration {
	for {
		now := c.now.Load()
		if int64(t) <= now {
			return Duration(now)
		}
		if c.now.CompareAndSwap(now, int64(t)) {
			return t
		}
	}
}

// Reset rewinds the clock to zero. Intended for reusing a clock between
// experiment runs.
func (c *Clock) Reset() { c.now.Store(0) }

// Resource is a serially shared facility (a disk, an SSD, a network link).
// Requests that use the same Resource queue behind one another: service
// is granted in call order, and each call returns the completion time of
// the request. Device traffic normally reaches a Resource through the QoS
// I/O scheduler (package iosched), which decides the call order — and
// therefore the service order — by class priority rather than by
// submission order. A Resource is one word and takes no lock: its caller
// serialises the calls (a device.Device holds its own mutex across them).
type Resource struct {
	busyUntil Duration
}

// Serve schedules a request arriving at time `at` that needs `service`
// time. It returns the completion time. Service is never negative.
func (r *Resource) Serve(at, service Duration) Duration {
	r.busyUntil = max(at, r.busyUntil) + max(service, 0)
	return r.busyUntil
}

// BusyUntil reports the time at which the resource becomes idle.
func (r *Resource) BusyUntil() Duration { return r.busyUntil }

// Reset returns the resource to idle at time zero.
func (r *Resource) Reset() { r.busyUntil = 0 }

// String implements fmt.Stringer for debugging.
func (r *Resource) String() string { return fmt.Sprintf("resource{busyUntil=%v}", r.busyUntil) }

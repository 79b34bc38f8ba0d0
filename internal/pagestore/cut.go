package pagestore

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrKilled marks operations on a store whose simulated process was
// killed by its Cut. The store stays dead until Crash() revives it.
var ErrKilled = errors.New("pagestore: store killed")

// Cut is the one fault a store injects, the crash cut ALICE and
// CrashMonkey enumerate: KillAfter(n) lets n more durable writes through
// and kills the store at the next, which does not happen. A sweep counts
// its scenario's writes in a clean run (Writes), then runs it under
// every n below that count, recovering and checking invariants after
// each.
//
// Every durable write of a store (a heap page; an SSTable or a manifest
// block of the LSM) asks Pass first and happens only on a nil return.
// Every other operation asks Check and refuses with ErrKilled once the
// cut has fired. A store that embeds another hands it its own Cut
// (NewStoreOn), so one sweep numbers both stores' writes in one
// sequence. The zero value is a disarmed, live cut.
type Cut struct {
	mu     sync.Mutex
	writes int64
	// kill is one more than the writes an armed KillAfter still lets
	// through (0 or less: disarmed).
	kill int64
	dead atomic.Bool
}

// KillAfter arms the cut: the store lets n more durable writes through
// and dies at the next one. From then on every operation returns
// ErrKilled until Crash() revives the store. A negative n disarms.
func (c *Cut) KillAfter(n int64) {
	c.mu.Lock()
	c.kill = n + 1
	c.mu.Unlock()
}

// Writes reports the durable writes that passed the cut.
func (c *Cut) Writes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// Dead reports whether the cut has fired.
func (c *Cut) Dead() bool { return c.dead.Load() }

// Check returns ErrKilled once the cut has fired.
func (c *Cut) Check() error {
	if c.dead.Load() {
		return ErrKilled
	}
	return nil
}

// Pass is the check a durable write makes before it happens: it counts
// the write, or refuses it with ErrKilled when the store is dead or the
// armed count runs out, which kills the store.
func (c *Cut) Pass() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead.Load() {
		return ErrKilled
	}
	if c.kill > 0 {
		if c.kill--; c.kill == 0 {
			c.dead.Store(true)
			return ErrKilled
		}
	}
	c.writes++
	return nil
}

// Revive disarms the cut and brings a killed store back: the first step
// of every Crash().
func (c *Cut) Revive() {
	c.mu.Lock()
	c.kill = 0
	c.dead.Store(false)
	c.mu.Unlock()
}

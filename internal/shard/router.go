package shard

import (
	"fmt"
	"sort"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/simclock"
)

// Session is one routed query stream: an engine session per shard, all
// advancing one logical timeline. Single-shard work runs on exactly one
// of them; cross-shard work fans out and re-synchronizes, so the
// session's notion of "now" is the max over the shards it touched —
// the same rule a real client observes talking to N nodes.
type Session struct {
	c    *Cluster
	sess []*engine.Session
}

// NewSession opens a routed session: one engine session per shard, all
// sharing one stream ID so traces show the routed stream as one track.
func (c *Cluster) NewSession() *Session {
	rs := &Session{c: c, sess: make([]*engine.Session, len(c.shards))}
	id := c.nextSID.Add(1)
	for i, s := range c.shards {
		rs.sess[i] = s.Inst.NewSession()
		rs.sess[i].Clk.SetID(id)
	}
	return rs
}

// At returns the engine session bound to shard i.
func (s *Session) At(i int) *engine.Session { return s.sess[i] }

// Now returns the session's logical time: the max over its per-shard
// clocks.
func (s *Session) Now() simclock.Duration {
	var max simclock.Duration
	for _, es := range s.sess {
		if t := es.Clk.Now(); t > max {
			max = t
		}
	}
	return max
}

// AdvanceTo advances every per-shard clock to at least t.
func (s *Session) AdvanceTo(t simclock.Duration) {
	for _, es := range s.sess {
		es.Clk.AdvanceTo(t)
	}
}

// Part is one transaction participant: the shard, the routed session's
// engine session on it, and the local transaction.
type Part struct {
	Shard *Shard
	Sess  *engine.Session
	T     *txn.Txn
}

// Txn is a routed transaction: local transactions begin lazily on the
// shards it touches. One participant commits directly (the single-shard
// fast path — byte-identical to an unsharded commit); several commit by
// two-phase commit through the cluster coordinator.
type Txn struct {
	c        *Cluster
	sess     *Session
	parts    map[int]*Part
	finished bool
}

// Begin starts a routed transaction. It holds the cluster drain barrier
// (not any shard's) until the transaction finishes; local transactions
// join shards as keys route there.
func (s *Session) Begin() (*Txn, error) {
	c := s.c
	if c.dead.Load() {
		return nil, txn.ErrCrashed
	}
	c.gate.RLock()
	if c.dead.Load() {
		c.gate.RUnlock()
		return nil, txn.ErrCrashed
	}
	return &Txn{c: c, sess: s, parts: make(map[int]*Part)}, nil
}

// At enrolls shard i as a participant (idempotent): the local
// transaction begins on the routed session's clock for that shard,
// advanced to the transaction's current logical time so no participant
// starts in another's past.
func (t *Txn) At(i int) (*Part, error) {
	if t.finished {
		return nil, fmt.Errorf("shard: txn already finished")
	}
	if p, ok := t.parts[i]; ok {
		return p, nil
	}
	var max simclock.Duration
	for _, p := range t.parts {
		if now := p.Sess.Clk.Now(); now > max {
			max = now
		}
	}
	es := t.sess.sess[i]
	es.Clk.AdvanceTo(max)
	lt, err := t.c.shards[i].TM.Begin(es)
	if err != nil {
		return nil, err
	}
	p := &Part{Shard: t.c.shards[i], Sess: es, T: lt}
	t.parts[i] = p
	return p, nil
}

// ForKey enrolls the shard owning key and returns its participant.
func (t *Txn) ForKey(key int64) (*Part, error) {
	return t.At(t.c.ShardFor(key))
}

// Parts returns the enrolled participants in shard order.
func (t *Txn) Parts() []*Part {
	ids := make([]int, 0, len(t.parts))
	for i := range t.parts {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	out := make([]*Part, len(ids))
	for k, i := range ids {
		out[k] = t.parts[i]
	}
	return out
}

// Commit finishes the transaction. Zero participants is a no-op; one
// participant commits locally exactly as an unsharded transaction would;
// several run two-phase commit: prepare everywhere (forced, locks held),
// a durable coordinator decision, then local phase-2 commits. On a
// prepare failure the prepared participants abort (presumed abort needs
// no decision record). The commit is atomic across shards: after a
// crash anywhere in the protocol, recovery resolves every participant
// to the same outcome the decision log records.
func (t *Txn) Commit() error {
	if t.finished {
		return fmt.Errorf("shard: txn already finished")
	}
	t.finished = true
	defer t.c.gate.RUnlock()
	parts := t.Parts()
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0].T.Commit()
	}
	return t.c.coord.commit(t.sess, parts)
}

// Abort rolls every participant back and releases the cluster barrier.
func (t *Txn) Abort() error {
	if t.finished {
		return fmt.Errorf("shard: txn already finished")
	}
	t.finished = true
	defer t.c.gate.RUnlock()
	var firstErr error
	for _, p := range t.Parts() {
		if err := p.T.Abort(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

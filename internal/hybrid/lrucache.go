package hybrid

import (
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
)

// lruPolicy is the monitoring-based baseline of the evaluation: the SSD
// cache is managed as a single LRU stack. Every accessed block is
// admitted — including sequentially scanned data (the cache pollution
// Figure 5 demonstrates) — and request classes are recorded for
// statistics but never influence placement.
type lruPolicy struct {
	*core
	classBlind
	stack lruList
}

func newLRUPolicy(c *core) *lruPolicy {
	l := &lruPolicy{core: c}
	l.stack.init()
	return l
}

func (l *lruPolicy) place(at time.Duration, req dss.Request, lbn int64) (outcome, int64) {
	write := req.Op == device.Write
	if m := l.table[lbn]; m != nil {
		l.stack.moveToFront(m)
		m.dirty = m.dirty || write
		return hit, m.pbn
	}
	// Miss: always allocate, evicting the LRU block if full. A class-blind
	// cache does not know what it is destaging: the write-back goes out
	// unclassified.
	if l.cached >= l.capacity {
		victim := l.stack.back()
		l.evicted(at, victim, dss.ClassNone)
		l.forget(&l.stack, victim)
	}
	return allocate, l.insert(&l.stack, lbn, 0, write, req.Tenant).pbn
}

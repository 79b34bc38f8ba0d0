package hybrid

import (
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
)

// The four ARC lists, as stored in blockMeta.class: T1 and T2 hold
// resident blocks, B1 and B2 their ghosts (table entries without an SSD
// slot).
const (
	listT1 = iota
	listT2
	listB1
	listB2
)

// arcPolicy implements ARC (Megiddo & Modha, FAST 2003) — the paper's
// other monitoring-based reference policy ([15], used in IBM storage
// systems and ZFS) — as an additional baseline beyond LRU. Like the LRU
// baseline it ignores request classes and TRIM; unlike LRU it adapts the
// split between recency (T1) and frequency (T2) using ghost lists B1/B2.
type arcPolicy struct {
	*core
	classBlind
	lists [4]lruList // indexed by blockMeta.class
	p     int        // adaptive target for |T1|
}

func newARCPolicy(c *core) *arcPolicy {
	a := &arcPolicy{core: c}
	for i := range a.lists {
		a.lists[i].init()
	}
	return a
}

func (a *arcPolicy) len(list int) int { return a.lists[list].len() }

// move transfers an entry between ARC lists.
func (a *arcPolicy) move(m *blockMeta, to int) {
	a.lists[m.class].remove(m)
	m.class = to
	a.lists[to].pushFront(m)
}

// replace evicts one resident block to a ghost list, per the ARC paper's
// REPLACE subroutine.
func (a *arcPolicy) replace(at time.Duration, inB2 bool) {
	t1 := a.len(listT1)
	if t1 > 0 && ((inB2 && t1 == a.p) || t1 > a.p || a.len(listT2) == 0) {
		a.demote(at, a.lists[listT1].back(), listB1)
	} else if a.len(listT2) > 0 {
		a.demote(at, a.lists[listT2].back(), listB2)
	}
}

// demote turns a resident entry into a ghost, writing back dirty data.
// A class-blind cache does not know what it is destaging: the
// write-back goes out unclassified.
func (a *arcPolicy) demote(at time.Duration, m *blockMeta, ghost int) {
	a.evicted(at, m, dss.ClassNone)
	a.move(m, ghost)
}

// dropGhost removes a ghost entry entirely.
func (a *arcPolicy) dropGhost(m *blockMeta) {
	a.forget(&a.lists[m.class], m)
}

func (a *arcPolicy) place(at time.Duration, req dss.Request, lbn int64) (outcome, int64) {
	write := req.Op == device.Write
	m := a.table[lbn]
	if m == nil {
		// Case IV: full miss.
		t1, b1 := a.len(listT1), a.len(listB1)
		if t1+b1 == a.capacity {
			if t1 < a.capacity {
				a.dropGhost(a.lists[listB1].back())
				a.replace(at, false)
			} else {
				// B1 empty, T1 full: evict T1's LRU outright.
				victim := a.lists[listT1].back()
				a.demote(at, victim, listB1)
				a.dropGhost(victim)
			}
		} else if total := t1 + b1 + a.len(listT2) + a.len(listB2); total >= a.capacity {
			if total == 2*a.capacity && a.len(listB2) > 0 {
				a.dropGhost(a.lists[listB2].back())
			}
			a.replace(at, false)
		}
		return allocate, a.insert(&a.lists[listT1], lbn, listT1, write, req.Tenant).pbn
	}

	switch b1, b2 := a.len(listB1), a.len(listB2); m.class {
	case listT1, listT2:
		// Case I: hit in T1 or T2.
		a.move(m, listT2)
		m.dirty = m.dirty || write
		return hit, m.pbn
	case listB1:
		// Cases II/III: ghost hits adapt the target p.
		a.p = min(a.capacity, a.p+max(1, b2/b1))
		a.replace(at, false)
	case listB2:
		a.p = max(0, a.p-max(1, b1/b2))
		a.replace(at, true)
	}
	m.pbn = a.allocSlot()
	m.dirty = write
	a.move(m, listT2)
	return allocate, m.pbn
}

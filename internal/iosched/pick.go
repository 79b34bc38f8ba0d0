package iosched

// hasEligibleLocked reports whether the queue holds work a dispatch
// round would grant: any foreground request, or background when allowed
// by a full drain, a disabled throttle, or available budget credit.
// Caller holds s.mu.
func (s *Scheduler) hasEligibleLocked(bgOK bool) bool {
	if s.nFg > 0 {
		return true
	}
	return s.nBg > 0 && (bgOK || s.bgShare <= 0 || s.bgCredit >= 1)
}

// pickIndexedLocked chooses the next request to grant: under FIFO the
// global oldest arrival; otherwise the oldest foreground request whose
// wait would exceed the aging bound, else the best (rank, vfinish,
// elevator) foreground request, else background. Background is exempt
// from aging — nobody waits on it — and while foreground is pending it
// is eligible only when its write-back budget holds at least one block
// of credit (budget=true, so the grant is debited) or when bgOK forces a
// full drain. Returns nil when nothing is eligible. Each branch is
// O(log n) on the indexes of index.go; the seed's linear scans it
// replaced are the reference in oracle_test.go. Caller holds s.mu.
func (s *Scheduler) pickIndexedLocked(bgOK bool) (*request, bool) {
	if s.fifo {
		return s.age.min(), false
	}
	busy := s.dev.BusyUntil()
	// Only background is queued, it is not forced out and it has no
	// credit: the pick could grant only a request arriving at or after
	// the busy horizon, and none has. Skips the band search a deep
	// deferred backlog makes expensive.
	if s.nFg == 0 && !bgOK && s.bgShare > 0 && s.bgCredit < 1 && busy > s.bgArriveMax {
		return nil, false
	}
	head := s.dev.HeadLBA()

	// Aging first. The overdue set {fg r : busy - r.arrive > bound} is
	// exactly the foreground requests older than busy-bound, so when it
	// is non-empty the oldest overdue request IS the heap minimum — the
	// seed's min-olderThan scan over the overdue subset and over all
	// foreground requests agree.
	var overdue *request
	if oldest := s.age.min(); oldest != nil && busy-oldest.arrive > s.agingBound {
		overdue = oldest
	}

	bestFg := s.bandBestLocked(false, head)
	bestBg := s.bandBestLocked(true, head)

	if overdue != nil && overdue != bestFg {
		s.stats.Boosted++
		s.mBoosted.Inc()
		return overdue, false
	}
	if bestFg != nil {
		if bestBg != nil && s.bgShare > 0 && s.bgCredit >= 1 && bestBg.blocks <= budgetMaxCoalesce {
			return bestBg, true
		}
		return bestFg, false
	}
	if bestBg == nil {
		return nil, false
	}
	if !bgOK && s.bgShare > 0 {
		if busy <= bestBg.arrive {
			return bestBg, false
		}
		if s.bgCredit >= 1 {
			return bestBg, true
		}
		return nil, false
	}
	return bestBg, false
}

// bandBestLocked returns the elevator-best request of the highest
// non-empty band on the requested side (foreground or background) of the
// rank space.
func (s *Scheduler) bandBestLocked(bg bool, head int64) *request {
	for _, b := range s.bands {
		if b.bg != bg || b.tree.size == 0 {
			continue
		}
		return b.elevatorBest(head)
	}
	return nil
}

// elevatorBest finds the band member the seed comparator would choose:
// among the minimum-vfinish group, the nearest LBA to the device head,
// ties to the smaller seq. With the tree ordered (vfinish, lba, seq) the
// candidates are the successor at (v, head) and the minimum-seq entry of
// the predecessor's LBA group — two or three O(log n) probes.
func (b *band) elevatorBest(head int64) *request {
	m := b.tree.min()
	if m == nil {
		return nil
	}
	v := m.vfinish
	if head < 0 {
		// No head position yet (before the device's first access):
		// distance never differs, so the tie falls to seq across the
		// whole min-vfinish group. Only reachable a handful of times
		// per run, so a bounded in-order walk is fine.
		best := m
		b.tree.ascendGE(reqKey(m), func(r *request) bool {
			if r.vfinish != v {
				return false
			}
			if r.seq < best.seq {
				best = r
			}
			return true
		})
		return best
	}
	probe := treeKey{vfinish: v, lba: head, seq: 0}
	succ := b.tree.seekGE(probe)
	if succ != nil && succ.vfinish != v {
		succ = nil
	}
	pred := b.tree.seekLT(probe)
	if pred != nil && pred.vfinish == v {
		// The list at pred's LBA may hold several requests; the seed
		// scan would take the first in pending (= lowest seq) order.
		pred = b.tree.seekGE(treeKey{vfinish: v, lba: pred.lba, seq: 0})
	} else {
		pred = nil
	}
	if succ == nil {
		return pred
	}
	if pred == nil {
		return succ
	}
	ds, dp := succ.lba-head, head-pred.lba
	if ds != dp {
		if ds < dp {
			return succ
		}
		return pred
	}
	if succ.seq < pred.seq {
		return succ
	}
	return pred
}

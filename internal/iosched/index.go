package iosched

import (
	"math"

	"hstoragedb/internal/device"
)

// This file is the indexed pick layer: the data-structure bookkeeping and
// the O(log n) replacements for the seed picker's linear scans. The seed
// picker itself survives verbatim as pickLinearLocked (behind
// Config.linearPick) and the two are held equal by the differential test
// in equivalence_test.go.
//
// Index invariants, maintained by indexInsertLocked/indexRemoveLocked
// under the scheduler lock:
//
//   - every pending foreground request is in the aging heap (keyed
//     (arrive, seq)); in FIFO mode background requests are in it too,
//     because FIFO grants the global arrival order across both;
//   - outside FIFO mode every pending request is in exactly one band
//     tree (keyed (vfinish, lba, seq)), bands kept sorted by rank;
//   - every pending request is on the boundary lists at its start LBA
//     and end LBA, newest-first, for O(1)-per-candidate coalescing and
//     background-write absorption lookups.

// band is one rank level (one priority class, or a background shadow of
// one) with its ordered request index. bg marks the background side
// explicitly — a negative classRank (log, write buffer) puts a
// background rank just below the backgroundBand offset, so the side
// cannot be recovered from the rank by thresholding. Bands are created
// on first use and kept — the set of ranks a workload touches is tiny
// and static.
type band struct {
	rank int
	bg   bool
	tree reqTree
}

func (s *Scheduler) bandFor(rank int, bg bool) *band {
	for i, b := range s.bands {
		if b.rank == rank {
			return b
		}
		if b.rank > rank {
			nb := &band{rank: rank, bg: bg}
			s.bands = append(s.bands, nil)
			copy(s.bands[i+1:], s.bands[i:])
			s.bands[i] = nb
			return nb
		}
	}
	nb := &band{rank: rank, bg: bg}
	s.bands = append(s.bands, nb)
	return nb
}

func (s *Scheduler) indexInsertLocked(r *request) {
	if s.fifo || r.w != nil {
		s.age.push(r)
	}
	if !s.fifo {
		b := s.bandFor(r.rank, r.w == nil)
		b.tree.insert(r)
		r.band = b
	}
	s.boundInsertLocked(r)
}

func (s *Scheduler) indexRemoveLocked(r *request) {
	if r.ageIdx >= 0 {
		s.age.remove(r)
	}
	if r.band != nil {
		r.band.tree.delete(r)
		r.band = nil
	}
	s.boundRemoveLocked(r)
	s.noteRemovedLocked(r)
}

// Boundary lists: intrusive doubly-linked lists headed in two maps, one
// keyed by start LBA and one by end LBA. Push is newest-first; lookups
// take the minimum seq over a list, which matches the seed's
// first-in-pending-order scan because pending order is seq order.

func (s *Scheduler) boundInsertLocked(r *request) {
	if h := s.startAt[r.lba]; h != nil {
		h.sPrev = r
	}
	r.sNext, r.sPrev = s.startAt[r.lba], nil
	s.startAt[r.lba] = r
	e := r.lba + int64(r.blocks)
	if h := s.endAt[e]; h != nil {
		h.ePrev = r
	}
	r.eNext, r.ePrev = s.endAt[e], nil
	s.endAt[e] = r
}

func (s *Scheduler) boundRemoveLocked(r *request) {
	if r.sPrev != nil {
		r.sPrev.sNext = r.sNext
	} else if r.sNext == nil {
		delete(s.startAt, r.lba)
	} else {
		s.startAt[r.lba] = r.sNext
	}
	if r.sNext != nil {
		r.sNext.sPrev = r.sPrev
	}
	r.sNext, r.sPrev = nil, nil
	e := r.lba + int64(r.blocks)
	if r.ePrev != nil {
		r.ePrev.eNext = r.eNext
	} else if r.eNext == nil {
		delete(s.endAt, e)
	} else {
		s.endAt[e] = r.eNext
	}
	if r.eNext != nil {
		r.eNext.ePrev = r.ePrev
	}
	r.eNext, r.ePrev = nil, nil
}

// pickIndexedLocked mirrors pickLinearLocked decision for decision:
// FIFO → global oldest; otherwise overdue boost, then best foreground
// (with the background token-budget override), then the background idle
// and credit gates. Each branch is O(log n) instead of a pending scan.
func (s *Scheduler) pickIndexedLocked(bgOK bool) (*request, bool) {
	if s.fifo {
		return s.age.min(), false
	}
	busy := s.dev.BusyUntil()
	head := s.dev.HeadLBA()

	// Aging first. The overdue set {fg r : busy - r.arrive > bound} is
	// exactly the foreground requests older than busy-bound, so when it
	// is non-empty the oldest overdue request IS the heap minimum — the
	// seed's min-olderThan scan over the overdue subset and over all
	// foreground requests agree.
	var overdue *request
	if oldest := s.age.min(); oldest != nil && s.agingBound > 0 && busy-oldest.arrive > s.agingBound {
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
		if s.quantum > 0 && overdue == nil {
			// The quantum may redirect the elevator only when no aging
			// decision is in play: an overdue pick (even one that
			// coincides with the elevator best) always stands, so the
			// policy can never stretch a wait past the aging bound.
			if alt := s.anticipatoryAltLocked(bestFg, head); alt != nil {
				s.stats.StreamSwitches++
				return alt, false
			}
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

// anticipatoryScan bounds the outward walk for an alternate stream so a
// pathological band layout cannot reintroduce an O(n) pick.
const anticipatoryScan = 64

// anticipatoryAltLocked implements the quanta policy: once the stream
// that won the elevator has been served AnticipatoryQuantum blocks
// consecutively, prefer the nearest same-band request from any other
// stream. Returns nil when the quantum has not expired, when best is
// already another stream's, or when no alternate exists within the scan
// bound — the elevator pick then stands, so the policy can only ever
// trade seek locality it was explicitly configured to give up.
func (s *Scheduler) anticipatoryAltLocked(best *request, head int64) *request {
	if best.sid == nil || best.sid != s.antStream || s.antLeft > 0 {
		return nil
	}
	b := best.band
	v := best.vfinish
	probe := treeKey{vfinish: v, lba: head, seq: 0}
	if head < 0 {
		probe = treeKey{vfinish: v, lba: math.MinInt64, seq: 0}
	}
	var right, left *request
	n := 0
	b.tree.ascendGE(probe, func(r *request) bool {
		if r.vfinish != v {
			return false
		}
		if r.sid != nil && r.sid != s.antStream {
			right = r
			return false
		}
		n++
		return n < anticipatoryScan
	})
	n = 0
	b.tree.descendLT(probe, func(r *request) bool {
		if r.vfinish != v {
			return false
		}
		if r.sid != nil && r.sid != s.antStream {
			left = r
			return false
		}
		n++
		return n < anticipatoryScan
	})
	if right == nil {
		return left
	}
	if left == nil {
		return right
	}
	dr, dl := right.lba-head, head-left.lba
	if head < 0 {
		return right
	}
	if dr != dl {
		if dr < dl {
			return right
		}
		return left
	}
	if right.seq < left.seq {
		return right
	}
	return left
}

// coalesceCandidateLocked finds the next request mergeable into the
// current batch: same op and class as the picked head, fits the block
// budget, same tenant under fair queueing, and either starts at the
// batch end (append) or ends at the batch start (prepend). The two
// boundary lists can never both match one request (its start is strictly
// below its end), so the seed's first-in-pending-order choice is the
// minimum seq over the union of the two lists.
func (s *Scheduler) coalesceCandidateLocked(head *request, start, end int64, room int, fair bool) (p *request, prepend bool) {
	for r := s.endAt[start]; r != nil; r = r.eNext {
		if r.op != head.op || r.class != head.class || r.blocks > room {
			continue
		}
		if fair && r.tenant != head.tenant {
			continue
		}
		if p == nil || r.seq < p.seq {
			p, prepend = r, true
		}
	}
	for r := s.startAt[end]; r != nil; r = r.sNext {
		if r.op != head.op || r.class != head.class || r.blocks > room {
			continue
		}
		if fair && r.tenant != head.tenant {
			continue
		}
		if p == nil || r.seq < p.seq {
			p, prepend = r, false
		}
	}
	return p, prepend
}

// absorbCandidateLocked finds the oldest pending single-block background
// write at lba, for write absorption. nil when none is pending.
func (s *Scheduler) absorbCandidateLocked(lba int64) *request {
	var p *request
	for r := s.startAt[lba]; r != nil; r = r.sNext {
		if r.w != nil || r.op != device.Write || r.blocks != 1 {
			continue
		}
		if p == nil || r.seq < p.seq {
			p = r
		}
	}
	return p
}

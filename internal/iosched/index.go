package iosched

import "hstoragedb/internal/device"

// This file is the pending queue: the ordered indexes the picker
// (pick.go) and the coalescer (coalesce.go) read in place of the seed's
// scans over one pending slice. Those scans live on in oracle_test.go,
// where TestPickerEquivalence re-derives every grant from them.
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
//     and end LBA, newest-first, for O(1)-per-candidate coalescing
//     lookups;
//   - every pending single-block background write is on the destage
//     list at its LBA, oldest-first, so write absorption takes the head
//     instead of walking the boundary list (a deep background backlog
//     piles up thousands of requests at one start LBA).

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
	if isDestage(r) {
		s.destageInsertLocked(r)
	}
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
	if isDestage(r) {
		s.destageRemoveLocked(r)
	}
	s.noteRemovedLocked(r)
}

// noteRemovedLocked maintains the pending counters for a request that
// just left the queue. Caller holds s.mu.
func (s *Scheduler) noteRemovedLocked(r *request) {
	s.queued.Add(-1)
	if r.w != nil {
		s.nFg--
	} else {
		s.nBg--
	}
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

// Destage lists: one intrusive singly-linked list per LBA of the
// pending single-block background writes there, headed in a map and
// linked oldest-first. Enqueue appends and enqueue order is seq order,
// so the head is the minimum seq: the request the seed's
// first-in-pending-order scan chose to absorb. A list rarely holds more
// than one request, because every single-block background write absorbs
// its predecessor before it joins; only the one-block tail chunk of a
// longer background write joins without absorbing. So insert and remove
// walk the list itself, and a request carries one link, not two: the
// scheduler pools every request it ever queued, and a second pointer
// would cost each of them a larger allocation size class.

// isDestage reports whether r is a single-block background write, the
// only kind a newer background write to its block absorbs.
func isDestage(r *request) bool {
	return r.w == nil && r.op == device.Write && r.blocks == 1
}

func (s *Scheduler) destageInsertLocked(r *request) {
	p := s.destageAt[r.lba]
	if p == nil {
		s.destageAt[r.lba] = r
		return
	}
	for p.dNext != nil {
		p = p.dNext
	}
	p.dNext = r
}

func (s *Scheduler) destageRemoveLocked(r *request) {
	p := s.destageAt[r.lba]
	switch {
	case p != r:
		for p.dNext != r {
			p = p.dNext
		}
		p.dNext = r.dNext
	case r.dNext == nil:
		delete(s.destageAt, r.lba)
	default:
		s.destageAt[r.lba] = r.dNext
	}
	r.dNext = nil
}

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

// noteRemovedLocked maintains the pending counters for a request that
// just left the queue. Caller holds s.mu.
func (s *Scheduler) noteRemovedLocked(r *request) {
	s.queued.Add(-1)
	if r.w != nil {
		s.nFg--
	} else {
		s.nBg--
		if r.op == device.Write && r.blocks == 1 {
			if n := s.bgWriteLBA[r.lba]; n > 1 {
				s.bgWriteLBA[r.lba] = n - 1
			} else {
				delete(s.bgWriteLBA, r.lba)
			}
		}
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

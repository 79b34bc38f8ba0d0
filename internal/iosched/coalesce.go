package iosched

// grantBestLocked picks, coalesces and grants one device access; bgOK
// lets over-budget background through (idle dispatch, full drain). It
// reports whether anything was granted. Caller holds s.mu.
func (s *Scheduler) grantBestLocked(bgOK bool) bool {
	head, budget := s.pickIndexedLocked(bgOK)
	if head == nil {
		return false
	}
	s.indexRemoveLocked(head)
	batch := append(s.batch[:0], head)
	start, end := head.lba, head.lba+int64(head.blocks)
	total := head.blocks
	// Coalesce LBA-adjacent queued requests of the same class and
	// direction into one access; FIFO grants the head alone. A
	// budget-forced background grant runs ahead of waiting foreground, so
	// its batch is capped well below maxCoalesce: the throttle must bound
	// the latency it injects, not just the share it consumes. Under tenant
	// fair sharing the batch is also tenant-pure — letting tenant B's
	// blocks ride in tenant A's grant would hand B device time its finish
	// tags never paid for, so adjacency across tenants no longer merges.
	max := s.maxCoalesce
	switch {
	case s.fifo:
		max = 0
	case budget && max > budgetMaxCoalesce:
		max = budgetMaxCoalesce
	}
	fair := len(s.g.tenantW) > 0
	for total < max {
		p, prepend := s.coalesceCandidateLocked(head, start, end, max-total, fair)
		if p == nil {
			break
		}
		s.indexRemoveLocked(p)
		if prepend {
			start = p.lba
			batch = append(batch, nil)
			copy(batch[1:], batch)
			batch[0] = p
		} else {
			end += int64(p.blocks)
			batch = append(batch, p)
		}
		total += p.blocks
		s.stats.Coalesced++
		s.mCoalesced.Inc()
	}
	s.batch = batch
	if s.grantHook != nil {
		s.grantHook(batch, start, total, budget, bgOK)
	}
	s.grantLocked(batch, start, total, budget)
	return true
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
		if mergeable(r, head, room, fair) && (p == nil || r.seq < p.seq) {
			p, prepend = r, true
		}
	}
	for r := s.startAt[end]; r != nil; r = r.sNext {
		if mergeable(r, head, room, fair) && (p == nil || r.seq < p.seq) {
			p, prepend = r, false
		}
	}
	return p, prepend
}

// mergeable reports whether queued request r may ride in head's batch
// with room blocks left.
func mergeable(r, head *request, room int, fair bool) bool {
	return r.op == head.op && r.class == head.class && r.blocks <= room &&
		(!fair || r.tenant == head.tenant)
}

// grantDueBackgroundLocked lets one batch of queued background work onto
// the device when no foreground request is waiting. At most one batch
// per dispatch event keeps destage bursts from monopolizing the device
// just because the foreground queue went momentarily empty; the rest of
// the backlog follows on later dispatches, budget grants or the final
// Drain. Caller holds s.mu.
func (s *Scheduler) grantDueBackgroundLocked() {
	if s.nFg > 0 || s.nBg == 0 {
		return
	}
	s.grantBestLocked(true)
}

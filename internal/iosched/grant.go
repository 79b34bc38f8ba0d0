package iosched

import "hstoragedb/internal/device"

// grantLocked issues one device access for a coalesced batch and
// completes its requests; budget marks a background grant the write-back
// budget forced ahead of waiting foreground, which debits its credit.
// Completion latencies are flushed to the device in one batched
// observation, and the batch's requests return to the free list before
// any waiter is woken. A grant that empties the queue ends by giving a
// deep backlog's memory back (rewindLocked). Caller holds s.mu.
func (s *Scheduler) grantLocked(batch []*request, start int64, total int, budget bool) {
	// Like the coalescing filters, accounting keys off the batch head —
	// after prepend-coalescing that is the lowest-LBA member, not
	// necessarily the picked request.
	head := batch[0]
	arrive := batch[0].arrive
	for _, r := range batch[1:] {
		if r.arrive < arrive {
			arrive = r.arrive
		}
	}
	wm := s.g.tenantW
	fair := len(wm) > 0
	// Readahead: extend a sequential-class read past the run so the
	// scan's next request is served from the buffer.
	extra := 0
	if head.w != nil && head.op == device.Read && head.class == s.seqClass && s.ra != nil {
		if _, ok := s.ra[start+int64(total)]; !ok {
			extra = s.readahead
		}
	}
	// Write-back budget accounting: foreground grants deposit their
	// share; budget-forced background grants withdraw what they carried.
	// Idle and drain grants ride free device time and touch no credit.
	if share := s.bgShare; share > 0 {
		// The credit cap is one coalesced batch: a budget grant can put
		// at most maxCoalesce blocks ahead of waiting foreground, and
		// the floor at zero keeps bursts from borrowing against the
		// future. The ledger records effective movements — the credited
		// part of a capped deposit, the consumed part of a floored
		// withdrawal — so deposits - withdrawals == credit always.
		creditCap := float64(s.maxCoalesce)
		if head.w != nil {
			before := s.bgCredit
			s.bgCredit += share * float64(total)
			if s.bgCredit > creditCap {
				s.bgCredit = creditCap
			}
			if s.bgCredit > before {
				s.stats.BudgetDeposits += s.bgCredit - before
			}
		} else if budget {
			withdraw := float64(total)
			if withdraw > s.bgCredit {
				withdraw = s.bgCredit
			}
			s.bgCredit -= withdraw
			s.stats.BudgetWithdrawals += withdraw
			s.stats.BudgetBlocks += int64(total)
			s.stats.BudgetGrants++
		}
	}
	if head.w == nil {
		s.stats.BackgroundGrants++
		s.stats.BackgroundBlocks += int64(total)
		s.mBgGrants.Inc()
	}
	// Per-tenant accounting: each request's blocks are charged to its
	// own tenant (a fair-share batch is tenant-pure, but the class-only
	// baseline still merges across tenants), and the grant wait is
	// measured the way the aging bound measures it — against the
	// device's busy horizon at grant time.
	busy := s.dev.BusyUntil()
	for _, r := range batch {
		if r.vstart > s.vclock {
			s.vclock = r.vstart
		}
		if r.w != nil {
			// The band-wait histogram records the same scheduler-imposed
			// delay the aging bound and TenantStats.MaxWait measure.
			wait := busy - r.base
			if wait < 0 {
				wait = 0
			}
			s.bandWaitLocked(int(r.class)).Observe(wait)
		}
		if !trackTenant(r.tenant, fair) {
			continue
		}
		ts := &s.acctLocked(r.tenant).stats
		if r.w != nil {
			ts.Blocks += int64(r.blocks)
			s.tenantBlocksLocked(r.tenant).Add(int64(r.blocks))
			if wait := busy - r.base; wait > ts.MaxWait {
				ts.MaxWait = wait
			}
		} else {
			ts.BackgroundBlocks += int64(r.blocks)
		}
	}
	if extra > 0 && trackTenant(head.tenant, fair) {
		// Readahead extends the grant with real device blocks: bill
		// them to the scan's tenant — both in the granted-block stats
		// and, under fair sharing, in its virtual time, so prefetching
		// cannot buy a tenant device bandwidth its weight does not
		// cover.
		ta := s.acctLocked(head.tenant)
		ta.stats.Blocks += int64(extra)
		if fair {
			ta.lastFinish += float64(extra) / weightOf(wm, head.tenant)
		}
	}
	end := s.dev.Access(arrive, head.op, start, total+extra)
	if extra > 0 {
		base := start + int64(total)
		for j := 0; j < extra; j++ {
			s.insertRALocked(base+int64(j), end)
		}
		s.stats.PrefetchBlocks += int64(extra)
		s.mPrefetchBlks.Add(int64(extra))
	}
	s.stats.Granted++
	s.mGranted.Inc()
	if tr := s.g.obs.Trace(); tr != nil {
		// serviceStart approximates when the device turned to this grant:
		// the later of the batch's arrival and the busy horizon the grant
		// was measured against. Queue-wait and service spans share the
		// submitting stream's track so Perfetto shows the request's life
		// end to end.
		serviceStart := arrive
		if busy > serviceStart {
			serviceStart = busy
		}
		if serviceStart > end {
			serviceStart = end
		}
		dev := s.dev.Spec().Name
		if head.w == nil {
			tr.Span("device", "destage", 0, serviceStart, end-serviceStart, map[string]any{
				"dev": dev, "op": head.op.String(), "lba": start, "blocks": total})
		}
		for _, r := range batch {
			if r.w == nil || !r.w.trace {
				continue
			}
			qw := serviceStart - r.arrive
			if qw < 0 {
				qw = 0
			}
			tr.Span("iosched", "queue.wait", r.w.tid, r.arrive, qw, map[string]any{
				"dev": dev, "class": int(r.class), "lba": r.lba, "blocks": r.blocks})
			tr.Span("device", "service", r.w.tid, serviceStart, end-serviceStart, map[string]any{
				"dev": dev, "op": head.op.String(), "blocks": total})
		}
	}
	for _, r := range batch {
		if r.w == nil {
			continue
		}
		if end > r.w.completion {
			r.w.completion = end
		}
		r.w.remaining--
		if r.w.remaining == 0 {
			// One latency sample per submission, at its last chunk —
			// collected here, flushed to the device in one batch below.
			sample := device.LatencySample{Class: int(r.w.class), Tenant: -1, Lat: r.w.completion - r.w.arrive}
			if trackTenant(r.w.tenant, fair) {
				sample.Tenant = int(r.w.tenant)
			}
			s.latBatch = append(s.latBatch, sample)
			if r.w.barrier {
				s.g.blocked.Add(-1)
			}
			s.doneW = append(s.doneW, r.w)
		}
	}
	for i, r := range batch {
		batch[i] = nil
		s.putRequestLocked(r)
	}
	if len(s.latBatch) > 0 {
		s.dev.ObserveLatency(s.latBatch...)
		s.latBatch = s.latBatch[:0]
	}
	// Wake the completed submitters last: signal is the granter's final
	// touch of each waiter, so the submitter may recycle it on return.
	for i, w := range s.doneW {
		s.doneW[i] = nil
		w.signal()
	}
	s.doneW = s.doneW[:0]
	s.rewindLocked()
}

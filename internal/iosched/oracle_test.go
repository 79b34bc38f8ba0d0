package iosched

import (
	"sort"
	"time"
)

// This file is the picker's reference implementation: the seed's O(n)
// scans over one pending slice, kept as pure functions over a queue
// snapshot so TestPickerEquivalence can re-derive every grant the
// indexed picker issues (head, coalesced batch, budget flag). The scans
// are the seed's code with the scheduler state they read passed in as
// oracleState; they know nothing of the indexes in index.go.

// oracleState is what the seed picker read from the scheduler and the
// device when it picked.
type oracleState struct {
	fifo        bool
	fair        bool
	bgOK        bool
	busy        time.Duration // device busy horizon
	head        int64         // device head LBA, -1 before the first access
	agingBound  time.Duration
	maxCoalesce int
	bgShare     float64
	bgCredit    float64
}

// pendingSnapshot rebuilds the seed's pending slice as it stood when the
// grant was picked: the requests still on the indexes (band trees, or
// the arrival heap under FIFO, which keeps no bands) plus the batch the
// grant just removed, in submission (seq) order — the order the slice
// had, since enqueue appended and removal preserved order.
func pendingSnapshot(s *Scheduler, batch []*request) []*request {
	q := append([]*request(nil), batch...)
	if s.fifo {
		q = append(q, s.age.a...)
	} else {
		for _, b := range s.bands {
			if m := b.tree.min(); m != nil {
				b.tree.ascendGE(reqKey(m), func(r *request) bool {
					q = append(q, r)
					return true
				})
			}
		}
	}
	sort.Slice(q, func(i, j int) bool { return q[i].seq < q[j].seq })
	return q
}

// referencePick chooses the next request: the oldest foreground request
// whose wait would exceed the aging bound (boosted), else the best
// (rank, vfinish, elevator) foreground request, else background.
// Background is exempt from aging — nobody waits on it — and while
// foreground is pending it is eligible only when its write-back budget
// holds at least one block of credit (budget=true, so the grant is
// debited) or when bgOK forces a full drain. FIFO picks strictly by
// arrival. Returns -1 when nothing is eligible.
func referencePick(pending []*request, st oracleState) (pick int, budget, boosted bool) {
	if len(pending) == 0 {
		return -1, false, false
	}
	if st.fifo {
		oldest := 0
		for i, r := range pending {
			if olderThan(r, pending[oldest]) {
				oldest = i
			}
		}
		return oldest, false, false
	}
	bestFg, overdue, bestBg := -1, -1, -1
	for i, r := range pending {
		if r.w != nil {
			if st.agingBound > 0 && st.busy-r.arrive > st.agingBound {
				if overdue < 0 || olderThan(r, pending[overdue]) {
					overdue = i
				}
			}
			if bestFg < 0 || betterThanAt(r, pending[bestFg], st.head) {
				bestFg = i
			}
		} else if bestBg < 0 || betterThanAt(r, pending[bestBg], st.head) {
			bestBg = i
		}
	}
	if overdue >= 0 && overdue != bestFg {
		return overdue, false, true
	}
	if bestFg >= 0 {
		if bestBg >= 0 && st.bgShare > 0 && st.bgCredit >= 1 &&
			pending[bestBg].blocks <= budgetMaxCoalesce {
			// A chunk already larger than the budget batch cap is never
			// forced ahead of waiting foreground.
			return bestBg, true, false
		}
		return bestFg, false, false
	}
	if bestBg >= 0 && !st.bgOK && st.bgShare > 0 {
		// Opportunistic dispatch grants background on an idle device or
		// against budget credit; otherwise the backlog keeps accumulating.
		if st.busy <= pending[bestBg].arrive {
			return bestBg, false, false
		}
		if st.bgCredit >= 1 {
			return bestBg, true, false
		}
		return -1, false, false
	}
	return bestBg, false, false
}

// betterThanAt orders same-rank requests first by fair-queueing finish
// tag and then by distance from the device head (the elevator pass),
// ties to the earlier submission. With fair sharing off every finish tag
// is 0 and the ordering reduces to the class-only elevator.
func betterThanAt(a, b *request, head int64) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	if a.vfinish != b.vfinish {
		return a.vfinish < b.vfinish
	}
	if head >= 0 {
		da, db := a.lba-head, b.lba-head
		if da < 0 {
			da = -da
		}
		if db < 0 {
			db = -db
		}
		if da != db {
			return da < db
		}
	}
	return a.seq < b.seq
}

// referenceGrant picks and coalesces one grant out of the snapshot the
// way the seed's grantBestLocked did: the first request in pending order
// that is LBA-adjacent to the batch, same op and class (and tenant under
// fair sharing) and fits the block cap joins it, until none does. A nil
// batch means nothing was eligible.
func referenceGrant(pending []*request, st oracleState) (batch []*request, start int64, total int, budget, boosted bool) {
	i, budget, boosted := referencePick(pending, st)
	if i < 0 {
		return nil, 0, 0, false, false
	}
	head := pending[i]
	pending = append(append([]*request(nil), pending[:i]...), pending[i+1:]...)
	batch = []*request{head}
	start, end := head.lba, head.lba+int64(head.blocks)
	total = head.blocks
	if st.fifo {
		return batch, start, total, budget, boosted
	}
	max := st.maxCoalesce
	if budget && max > budgetMaxCoalesce {
		max = budgetMaxCoalesce
	}
	for total < max {
		found, prepend := -1, false
		for j, q := range pending {
			if q.op != head.op || q.class != head.class || total+q.blocks > max {
				continue
			}
			if st.fair && q.tenant != head.tenant {
				continue
			}
			if q.lba == end {
				found = j
				break
			}
			if q.lba+int64(q.blocks) == start {
				found, prepend = j, true
				break
			}
		}
		if found < 0 {
			break
		}
		p := pending[found]
		pending = append(pending[:found], pending[found+1:]...)
		if prepend {
			start = p.lba
			batch = append([]*request{p}, batch...)
		} else {
			end += int64(p.blocks)
			batch = append(batch, p)
		}
		total += p.blocks
	}
	return batch, start, total, budget, boosted
}

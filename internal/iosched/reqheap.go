package iosched

// ageHeap is an intrusive binary min-heap over pending requests keyed by
// (arrive, seq) — the olderThan order. It backs two picker duties in the
// indexed scheduler:
//
//   - the aging check: the heap minimum is the oldest pending foreground
//     request, and (because the overdue set is an arrival-prefix of the
//     queue) it is exactly the request the seed's linear scan would boost
//     when any request is overdue;
//   - FIFO mode: with no class priority, the heap minimum is the grant —
//     the whole pick is one O(1) peek plus an O(log n) removal.
//
// A deque would not do for either: arrivals are stamped by per-stream
// session clocks, so enqueue order is not arrival order across streams
// and the "arrival deque head" is only findable through a real ordered
// structure. Membership is intrusive (request.ageIdx), so removal from
// the middle — a request granted through the band index or absorbed —
// is O(log n) with no auxiliary allocation, and requests can be pooled
// without the stale-entry hazard lazy deletion would create.
type ageHeap struct {
	a []*request
}

// olderThan is the heap order: earlier arrival first, submission order
// (seq) between equal arrivals.
func olderThan(a, b *request) bool {
	if a.arrive != b.arrive {
		return a.arrive < b.arrive
	}
	return a.seq < b.seq
}

func (h *ageHeap) len() int { return len(h.a) }

// min returns the oldest pending request (nil when empty) without
// removing it.
func (h *ageHeap) min() *request {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

func (h *ageHeap) push(r *request) {
	r.ageIdx = len(h.a)
	h.a = append(h.a, r)
	h.up(r.ageIdx)
}

// remove unlinks r from the heap by its stored index; a request that is
// not in the heap is ignored.
func (h *ageHeap) remove(r *request) {
	i := r.ageIdx
	if i < 0 || i >= len(h.a) || h.a[i] != r {
		return
	}
	last := len(h.a) - 1
	h.swap(i, last)
	h.a[last] = nil
	h.a = h.a[:last]
	r.ageIdx = -1
	if i < last {
		h.down(i)
		h.up(i)
	}
}

func (h *ageHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !olderThan(h.a[i], h.a[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *ageHeap) down(i int) {
	n := len(h.a)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && olderThan(h.a[r], h.a[l]) {
			m = r
		}
		if !olderThan(h.a[m], h.a[i]) {
			break
		}
		h.swap(i, m)
		i = m
	}
}

func (h *ageHeap) swap(i, j int) {
	h.a[i], h.a[j] = h.a[j], h.a[i]
	h.a[i].ageIdx = i
	h.a[j].ageIdx = j
}

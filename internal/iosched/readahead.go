package iosched

import (
	"time"

	"hstoragedb/internal/dss"
)

// NoReadahead is a sentinel seqClass for Attach that matches no real
// request class, disabling readahead on that device. Cache devices need
// it: their address space is physical cache slots (PBNs, recycled
// arbitrarily), so "the next 32 blocks" after a cache hit are
// physically meaningless and must not be prefetched.
const NoReadahead = dss.Class(-1 << 30)

// Buffered reports whether the readahead buffer holds lba and, if so, the
// virtual time its prefetching grant completes. It is read-only: the
// entry stays for whoever reads the block through Submit next, and
// Stats().PrefetchHits does not count the look. The hybrid cache asks it
// before serving a clean cached block of a scan from the SSD, since a copy
// the HDD has already streamed costs nothing more.
func (s *Scheduler) Buffered(lba int64) (ready time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ready, ok = s.ra[lba]
	return ready, ok
}

// insertRALocked adds one block to the prefetch buffer, evicting the
// oldest entries beyond capacity. Caller holds s.mu.
func (s *Scheduler) insertRALocked(lba int64, ready time.Duration) {
	if _, ok := s.ra[lba]; ok {
		s.ra[lba] = ready
		return
	}
	s.ra[lba] = ready
	s.raOrder = append(s.raOrder, lba)
	for len(s.ra) > s.readaheadCap && len(s.raOrder) > 0 {
		old := s.raOrder[0]
		s.raOrder = s.raOrder[1:]
		delete(s.ra, old)
	}
	// Consumed and invalidated blocks leave stale keys behind in
	// raOrder; compact it once it grows well past the live buffer so it
	// cannot grow without bound under a long consuming scan.
	if len(s.raOrder) > 4*s.readaheadCap {
		live := s.raOrder[:0]
		for _, k := range s.raOrder {
			if _, ok := s.ra[k]; ok {
				live = append(live, k)
			}
		}
		s.raOrder = live
	}
}

// invalidateRALocked drops buffered blocks overwritten by a write, so a
// later read pays for the fresh copy. Caller holds s.mu.
func (s *Scheduler) invalidateRALocked(lba int64, blocks int) {
	if s.ra == nil {
		return
	}
	for i := 0; i < blocks; i++ {
		delete(s.ra, lba+int64(i))
	}
}

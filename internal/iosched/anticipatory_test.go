package iosched

import (
	"testing"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/simclock"
)

// anticipatoryRun queues two streams' same-class single-block reads —
// one parked right at the device head, one far away — and returns the
// per-grant stream labels plus the scheduler stats.
func anticipatoryRun(t *testing.T, quantum int) (order []byte, st Stats) {
	t.Helper()
	g, s, dev := newTestSched(Config{
		AgingBound:          DisableAging,
		Readahead:           DisableReadahead,
		AnticipatoryQuantum: quantum,
	})
	// Park the head at LBA 100 so stream A's cluster owns the elevator.
	dev.Access(0, device.Read, 100, 1)
	var a, b simclock.Clock
	s.grantHook = func(batch []*request, start int64, total int, budget, bgOK bool) {
		switch batch[0].sid {
		case &a:
			order = append(order, 'A')
		case &b:
			order = append(order, 'B')
		}
	}
	s.mu.Lock()
	for i := 0; i < 10; i++ {
		// Stride 2 keeps same-stream neighbours from coalescing, which
		// would blur the per-grant stream sequence.
		s.enqueueLocked(bareWaiter(dss.Class(2), dss.DefaultTenant), 0,
			device.Read, 100+int64(2*i), 1, dss.Class(2), dss.DefaultTenant, &a)
		s.enqueueLocked(bareWaiter(dss.Class(2), dss.DefaultTenant), 0,
			device.Read, 1_000_000+int64(2*i), 1, dss.Class(2), dss.DefaultTenant, &b)
	}
	s.mu.Unlock()
	g.Drain()
	return order, s.Stats()
}

// TestAnticipatoryQuantumSwitchesStreams: without a quantum the elevator
// serves the whole near-head stream before the far one; with a quantum
// the far stream starts being served after quantum blocks, so no stream
// monopolizes the elevator between aging boosts.
func TestAnticipatoryQuantumSwitchesStreams(t *testing.T) {
	firstB := func(order []byte) int {
		for i, c := range order {
			if c == 'B' {
				return i
			}
		}
		return -1
	}

	off, stOff := anticipatoryRun(t, 0)
	if stOff.StreamSwitches != 0 {
		t.Fatalf("quantum off recorded %d stream switches", stOff.StreamSwitches)
	}
	if got := firstB(off); got != 10 {
		t.Fatalf("quantum off: far stream first granted at %d, want 10 (after the whole near stream): %s", got, off)
	}

	on, stOn := anticipatoryRun(t, 3)
	if stOn.StreamSwitches == 0 {
		t.Fatal("quantum on never switched streams")
	}
	if got := firstB(on); got < 0 || got > 4 {
		t.Fatalf("quantum 3: far stream first granted at %d, want within ~one quantum: %s", got, on)
	}
	if len(on) != 20 || len(off) != 20 {
		t.Fatalf("grant counts: %d quantum-on, %d quantum-off, want 20 each", len(on), len(off))
	}
}

// TestAnticipatoryRespectsAging: the quantum redirect is skipped while
// an aging decision is in play, so an overdue low-class request is still
// boosted within the bound with the policy enabled.
func TestAnticipatoryRespectsAging(t *testing.T) {
	bound := 2 * time.Millisecond
	g, s, dev := newTestSched(Config{
		AgingBound:          bound,
		Readahead:           DisableReadahead,
		AnticipatoryQuantum: 2,
	})
	dev.Access(0, device.Write, 0, 64) // ~8.9ms busy: queued work goes overdue
	var a, b simclock.Clock
	s.mu.Lock()
	// The overdue victim: low class, far away, submitted first.
	low := bareWaiter(seqClass, dss.DefaultTenant)
	s.enqueueLocked(low, 0, device.Read, 5_000_000, 1, seqClass, dss.DefaultTenant, &a)
	// A stream of fresher high-class requests near the head.
	var highs []*waiter
	for i := 0; i < 6; i++ {
		w := bareWaiter(dss.ClassLog, dss.DefaultTenant)
		s.enqueueLocked(w, time.Millisecond, device.Write, int64(2*i), 1, dss.ClassLog, dss.DefaultTenant, &b)
		highs = append(highs, w)
	}
	s.mu.Unlock()
	g.Drain()
	if s.Stats().Boosted == 0 {
		t.Fatal("aging never boosted with the quantum enabled")
	}
	for i, h := range highs[1:] {
		if low.completion > h.completion {
			t.Fatalf("overdue request finished after fresh high[%d]: %v vs %v — quantum weakened the aging bound",
				i+1, low.completion, h.completion)
		}
	}
}

package iosched

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
)

// TestPickerEquivalence is the differential guarantee behind the indexed
// picker: across 500 randomized workloads cycling through the FIFO, fair
// and class-only modes (and varied aging, coalescing, readahead and
// budget knobs), every grant — head, coalesced batch in order, budget
// flag, aging boost — equals what the seed's linear scans
// (oracle_test.go) derive from the queue as it stood at that grant.
// testdata/grants.golden holds one hash per seed of the grant sequence,
// written while the linear picker was still a second scheduler mode
// that produced the same 500 sequences: it checks that the oracle is a
// faithful transcription, and keeps traces and BENCH goldens
// byte-for-byte where they were.
func TestPickerEquivalence(t *testing.T) {
	raw, err := os.ReadFile("testdata/grants.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(golden) != 500 {
		t.Fatalf("grants.golden has %d lines, want 500", len(golden))
	}
	for seed := int64(0); seed < 500; seed++ {
		cfgRng := rand.New(rand.NewSource(seed))
		cfg := Config{}
		fair := false
		switch seed % 3 {
		case 0: // class-only
		case 1:
			fair = true
		case 2:
			cfg.FIFO = true
		}
		switch cfgRng.Intn(3) {
		case 0:
			cfg.AgingBound = time.Millisecond
		case 1:
			cfg.AgingBound = DisableAging
		}
		if cfgRng.Intn(2) == 0 {
			cfg.MaxCoalesce = 8
		}
		if cfgRng.Intn(2) == 0 {
			cfg.Readahead = DisableReadahead
		} else {
			cfg.Readahead = 8
		}
		if cfgRng.Intn(3) == 0 {
			cfg.BackgroundShare = DisableBackgroundShare
		}

		grants := grantTrace(t, cfg, fair, seed)
		sum := sha256.Sum256([]byte(strings.Join(grants, "\n")))
		if got := fmt.Sprintf("%d %x", seed, sum[:8]); got != golden[seed] {
			t.Fatalf("seed %d (%+v fair=%v): grant sequence hashes to %q, golden has %q",
				seed, cfg, fair, got, golden[seed])
		}
	}
}

// grantLine renders one grant for the trace and for failure messages.
func grantLine(batch []*request, start int64, total int, budget bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v@%d+%d budget=%v seqs=", batch[0].op, start, total, budget)
	for _, r := range batch {
		fmt.Fprintf(&sb, "%d,", r.seq)
	}
	return sb.String()
}

// grantTrace runs one randomized single-threaded workload against a
// fresh scheduler, checks every grant against the reference picker and
// returns the grant sequence.
func grantTrace(t *testing.T, cfg Config, fair bool, seed int64) []string {
	t.Helper()
	g, s, _ := newTestSched(cfg)
	if fair {
		g.SetTenantWeight(1, 4)
		g.SetTenantWeight(2, 1)
	}
	grants := checkGrants(t, s, cfg, fair, seed)
	rng := rand.New(rand.NewSource(seed))
	classes := []dss.Class{dss.ClassLog, dss.ClassWriteBuffer, dss.Class(1),
		dss.Class(2), seqClass, dss.ClassNone}
	var at time.Duration
	for i := 0; i < 200; i++ {
		at += time.Duration(rng.Intn(300)) * time.Microsecond
		if rng.Intn(4) == 0 {
			// Background destages over a small LBA range, mostly
			// single-block, so absorption collisions actually happen.
			blocks := 1
			if rng.Intn(4) == 0 {
				blocks = 1 + rng.Intn(3)
			}
			s.SubmitBackground(at, device.Write, int64(rng.Intn(400)+100000), blocks,
				dss.ClassWriteBuffer, dss.TenantID(rng.Intn(3)))
			continue
		}
		op := device.Read
		if rng.Intn(3) == 0 {
			op = device.Write
		}
		s.Submit(at, op, int64(rng.Intn(4000)), 1+rng.Intn(12),
			classes[rng.Intn(len(classes))], dss.TenantID(rng.Intn(3)), nil)
	}
	g.Drain()
	return *grants
}

// checkGrants installs a grant hook on s that checks every grant against
// the reference picker run over the queue as it stood, and appends each
// grant's line to the returned sequence.
func checkGrants(t *testing.T, s *Scheduler, cfg Config, fair bool, seed int64) *[]string {
	t.Helper()
	dev := s.dev
	var grants []string
	var boosts int64
	s.grantHook = func(batch []*request, start int64, total int, budget, bgOK bool) {
		pending := pendingSnapshot(s, batch)
		if len(pending) != s.nFg+s.nBg+len(batch) {
			t.Fatalf("seed %d grant %d: indexes hold %d requests, counters say %d",
				seed, len(grants), len(pending)-len(batch), s.nFg+s.nBg)
		}
		wantBatch, wantStart, wantTotal, wantBudget, wantBoost := referenceGrant(pending, oracleState{
			fifo: s.fifo, fair: fair, bgOK: bgOK,
			busy: dev.BusyUntil(), head: dev.HeadLBA(),
			agingBound: s.agingBound, maxCoalesce: s.maxCoalesce,
			bgShare: s.bgShare, bgCredit: s.bgCredit,
		})
		got := grantLine(batch, start, total, budget)
		if wantBatch == nil {
			t.Fatalf("seed %d (%+v fair=%v) grant %d: indexed granted %s, reference found nothing eligible",
				seed, cfg, fair, len(grants), got)
		}
		if want := grantLine(wantBatch, wantStart, wantTotal, wantBudget); got != want {
			t.Fatalf("seed %d (%+v fair=%v) grant %d diverged\nindexed:   %s\nreference: %s",
				seed, cfg, fair, len(grants), got, want)
		}
		if boosted := s.stats.Boosted != boosts; boosted != wantBoost {
			t.Fatalf("seed %d grant %d (%s): aging boost counted=%v, reference boosted=%v",
				seed, len(grants), got, boosted, wantBoost)
		}
		boosts = s.stats.Boosted
		grants = append(grants, got)
	}
	return &grants
}

// TestAbsorptionAgainstDeepChains runs write absorption against the
// shape of a deep deferred backlog: thousands of background reads piled
// on a few LBAs, so every LBA's boundary list is hundreds of requests
// long, with single-block background writes landing on the same LBAs
// over and over and the one-block tail chunks of longer background
// writes queueing second and third destages at them. Every absorption
// must drop the request the seed's scan (referenceAbsorb) picks from the
// queue as it stood, and every grant must still match the reference
// picker. The workload is not part of grants.golden.
func TestAbsorptionAgainstDeepChains(t *testing.T) {
	const (
		hot     = 6    // LBAs the backlog and the destages share
		backlog = 1200 // background reads queued before the first write
	)
	// FIFO mode grants background work in arrival order like any other,
	// so it never builds the backlog: class-only and fair sharing only.
	for seed := int64(0); seed < 2; seed++ {
		cfg := Config{Readahead: DisableReadahead, BackgroundShare: 0.2}
		fair := seed == 1
		g, s, dev := newTestSched(cfg)
		if fair {
			g.SetTenantWeight(1, 4)
			g.SetTenantWeight(2, 1)
		}
		grants := checkGrants(t, s, cfg, fair, seed)
		check := s.grantHook
		var granted []uint64
		s.grantHook = func(batch []*request, start int64, total int, budget, bgOK bool) {
			check(batch, start, total, budget, bgOK)
			for _, r := range batch {
				granted = append(granted, r.seq)
			}
		}
		// A busy device defers background work arriving at t=0 until
		// foreground grants deposit write-back credit.
		dev.Access(0, device.Write, 0, 4096)
		rng := rand.New(rand.NewSource(seed))
		base := int64(200000)
		lbaOf := func() int64 { return base + 2*int64(rng.Intn(hot)) }
		bgClasses := []dss.Class{dss.ClassWriteBuffer, dss.Class(2), seqClass}
		for i := 0; i < backlog; i++ {
			s.SubmitBackground(0, device.Read, lbaOf(), 1, seqClass, dss.DefaultTenant)
		}
		deepest, longestList, absorbed := 0, 0, 0
		for i := 0; i < 600; i++ {
			lba := lbaOf()
			cls := bgClasses[rng.Intn(len(bgClasses))]
			tenant := dss.TenantID(rng.Intn(3))
			switch k := rng.Intn(10); {
			case k == 0:
				// A foreground read deposits credit for budget grants.
				s.Submit(0, device.Read, int64(rng.Intn(4000)), 1+rng.Intn(8),
					dss.Class(2), tenant, nil)
			case k <= 2:
				// A longer background write whose last chunk is one
				// block at lba: a destage that absorbs nothing.
				mc := int64(s.maxCoalesce)
				s.SubmitBackground(0, device.Write, lba-mc, int(mc)+1, cls, tenant)
			default:
				before := queuedSeqs(s)
				// The absorbed request is recycled into the new one, so
				// only the seq outlives the call.
				want := referenceAbsorb(pendingSnapshot(s, nil), lba)
				var wantSeq uint64
				if want != nil {
					wantSeq = want.seq
				}
				granted = granted[:0]
				n := s.stats.Absorbed
				s.SubmitBackground(0, device.Write, lba, 1, cls, tenant)
				gone := goneSeqs(before, queuedSeqs(s), granted)
				switch {
				case want == nil && (s.stats.Absorbed != n || len(gone) != 0):
					t.Fatalf("seed %d write %d at %d: nothing to absorb, yet Absorbed %d→%d and seqs %v left the queue ungranted",
						seed, i, lba, n, s.stats.Absorbed, gone)
				case want != nil && (s.stats.Absorbed != n+1 || len(gone) != 1 || gone[0] != wantSeq):
					t.Fatalf("seed %d write %d at %d: reference absorbs seq %d, scheduler dropped %v (Absorbed %d→%d)",
						seed, i, lba, wantSeq, gone, n, s.stats.Absorbed)
				case want != nil:
					absorbed++
				}
			}
			for l := base; l < base+2*hot; l += 2 {
				n := 0
				for r := s.startAt[l]; r != nil; r = r.sNext {
					n++
				}
				if n > deepest {
					deepest = n
				}
				n = 0
				for r := s.destageAt[l]; r != nil; r = r.dNext {
					n++
				}
				if n > longestList {
					longestList = n
				}
			}
		}
		g.Drain()
		t.Logf("seed %d: longest LBA chain %d, longest destage list %d, %d absorptions, %d grants",
			seed, deepest, longestList, absorbed, len(*grants))
		if deepest < backlog/hot/2 || longestList < 2 || absorbed < 100 {
			t.Fatalf("seed %d: workload too shallow: longest LBA chain %d, longest destage list %d, %d absorptions",
				seed, deepest, longestList, absorbed)
		}
		if len(s.destageAt) != 0 {
			t.Fatalf("seed %d: %d destage lists left after Drain", seed, len(s.destageAt))
		}
	}
}

// queuedSeqs returns the seqs of every queued request.
func queuedSeqs(s *Scheduler) map[uint64]bool {
	m := make(map[uint64]bool)
	for _, r := range pendingSnapshot(s, nil) {
		m[r.seq] = true
	}
	return m
}

// goneSeqs returns, sorted, the seqs queued before a call that are
// queued no longer and were not granted by it.
func goneSeqs(before, after map[uint64]bool, granted []uint64) []uint64 {
	var gone []uint64
	for seq := range before {
		if !after[seq] && !slices.Contains(granted, seq) {
			gone = append(gone, seq)
		}
	}
	slices.Sort(gone)
	return gone
}

// TestFIFOHeadIsOldestArrival is the FIFO-mode regression for the
// indexed picker: arrivals are stamped by per-stream session clocks, so
// enqueue order is not arrival order, and the grant must follow the
// (arrive, seq) minimum — the aging-heap head — not the queue head.
func TestFIFOHeadIsOldestArrival(t *testing.T) {
	g, s, _ := newTestSched(Config{FIFO: true, Readahead: DisableReadahead})
	var order []time.Duration
	s.grantHook = func(batch []*request, start int64, total int, budget, bgOK bool) {
		order = append(order, batch[0].arrive)
	}
	// Arrival times deliberately out of enqueue order.
	arrivals := []time.Duration{5 * time.Millisecond, time.Millisecond,
		4 * time.Millisecond, 0, 2 * time.Millisecond, 2 * time.Millisecond}
	s.mu.Lock()
	for i, at := range arrivals {
		s.enqueueLocked(bareWaiter(dss.Class(2), dss.DefaultTenant), at,
			device.Read, int64(1000*i), 1, dss.Class(2), dss.DefaultTenant)
	}
	s.mu.Unlock()
	g.Drain()
	if len(order) != len(arrivals) {
		t.Fatalf("granted %d of %d requests", len(order), len(arrivals))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("FIFO grant order not by arrival: %v", order)
		}
	}
	if order[0] != 0 || order[len(order)-1] != 5*time.Millisecond {
		t.Fatalf("FIFO grant order not by arrival: %v", order)
	}
}

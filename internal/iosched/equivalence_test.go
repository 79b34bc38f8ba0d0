package iosched

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
)

// TestPickerEquivalence is the differential guarantee behind the indexed
// picker: across 500 randomized workloads cycling through the FIFO, fair
// and class-only modes (and varied aging, coalescing, readahead and
// budget knobs), the indexed structures grant the exact same sequence —
// same batches, same member order, same budget flags — as the reference
// linear picker (Config.linearPick). Grant-order equality is what keeps
// traces and BENCH goldens byte-for-byte deterministic across the
// swap.
func TestPickerEquivalence(t *testing.T) {
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

		linear := cfg
		linear.linearPick = true
		want := grantTrace(t, linear, fair, seed)
		got := grantTrace(t, cfg, fair, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d (%+v fair=%v): %d grants indexed vs %d linear\nindexed: %v\nlinear: %v",
				seed, cfg, fair, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d (%+v fair=%v): grant %d diverged\nindexed: %s\nlinear:  %s",
					seed, cfg, fair, i, got[i], want[i])
			}
		}
	}
}

// grantTrace runs one randomized single-threaded workload against a
// fresh scheduler and records every grant the picker issued.
func grantTrace(t *testing.T, cfg Config, fair bool, seed int64) []string {
	t.Helper()
	g, s, _ := newTestSched(cfg)
	if fair {
		g.SetTenantWeight(1, 4)
		g.SetTenantWeight(2, 1)
	}
	var grants []string
	s.grantHook = func(batch []*request, start int64, total int, budget bool) {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%v@%d+%d budget=%v seqs=", batch[0].op, start, total, budget)
		for _, r := range batch {
			fmt.Fprintf(&sb, "%d,", r.seq)
		}
		grants = append(grants, sb.String())
	}
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
	return grants
}

// TestFIFOHeadIsOldestArrival is the FIFO-mode regression for the
// indexed picker: arrivals are stamped by per-stream session clocks, so
// enqueue order is not arrival order, and the grant must follow the
// (arrive, seq) minimum — the aging-heap head — not the queue head.
func TestFIFOHeadIsOldestArrival(t *testing.T) {
	g, s, _ := newTestSched(Config{FIFO: true, Readahead: DisableReadahead})
	var order []time.Duration
	s.grantHook = func(batch []*request, start int64, total int, budget bool) {
		order = append(order, batch[0].arrive)
	}
	// Arrival times deliberately out of enqueue order.
	arrivals := []time.Duration{5 * time.Millisecond, time.Millisecond,
		4 * time.Millisecond, 0, 2 * time.Millisecond, 2 * time.Millisecond}
	s.mu.Lock()
	for i, at := range arrivals {
		s.enqueueLocked(bareWaiter(dss.Class(2), dss.DefaultTenant), at,
			device.Read, int64(1000*i), 1, dss.Class(2), dss.DefaultTenant, nil)
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

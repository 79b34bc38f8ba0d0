package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/iosched"
	"hstoragedb/internal/obs"
	"hstoragedb/internal/simclock"
)

// The hotpath experiment is the simulated half of the scheduler's
// raw-speed report: a deterministic anticipatory-dispatch arm on a
// simulated HDD — two registered streams at distant LBA ranges, with the
// quanta policy off and on, reporting the `iosched.band.wait` histogram
// before and after. It runs entirely in virtual time. The wall-clock
// half — ns/op and allocs/op of the pick/grant engine per queue depth
// and picker, and submit scaling across CPUs — is `make bench`
// (BenchmarkSubmitGrant, BenchmarkSubmitParallel in internal/iosched).

// HotpathAnticipatoryRun is one quantum setting of the HDD two-stream
// arm. All fields are virtual-time deterministic.
type HotpathAnticipatoryRun struct {
	Quantum int `json:"quantum"` // blocks; 0 = policy off

	// StreamSwitches counts deliberate quantum redirects; Boosted counts
	// aging-bound overrides — the "thrash" the quantum is meant to
	// replace with scheduled, bounded switches.
	StreamSwitches int64 `json:"stream_switches"`
	Boosted        int64 `json:"boosted"`

	// BandWait quantiles of the shared `iosched.band.wait` histogram for
	// the streams' class: the scheduler-imposed grant delay both streams
	// observed.
	BandWaitP50 time.Duration `json:"band_wait_p50_ns"`
	BandWaitP99 time.Duration `json:"band_wait_p99_ns"`

	// NearMaxWait/FarMaxWait are the per-stream worst-case waits (the
	// aging bound caps both; the far stream's is the one the quantum
	// should pull down).
	NearMaxWait time.Duration `json:"near_max_wait_ns"`
	FarMaxWait  time.Duration `json:"far_max_wait_ns"`

	// Makespan is the later of the two stream clocks at the end: the
	// seek-locality cost the quantum paid for the fairness above.
	Makespan time.Duration `json:"makespan_ns"`
}

// HotpathResult is the anticipatory arm, one run per quantum setting.
type HotpathResult struct {
	Anticipatory []HotpathAnticipatoryRun `json:"anticipatory"`
}

// Arm sizing.
const (
	hotpathAntReads   = 200 // per stream
	hotpathAntFarLBA  = 4 << 20
	hotpathAntQuantum = 8
	// The anticipatory arm widens the aging bound so the quantum has
	// room to act: with the 10ms default and ~5ms cross-stream seeks the
	// far stream goes overdue after two near grants, and the redirect is
	// (correctly) suppressed whenever an aging decision is in play — the
	// arm would measure the aging boost twice, not the quantum.
	hotpathAntAgingBound = 50 * time.Millisecond
	hotpathNearTenant    = dss.TenantID(1)
	hotpathFarTenant     = dss.TenantID(2)
	hotpathMeasuredClass = dss.Class(2)
)

// runHotpathAnticipatory runs the deterministic HDD two-stream arm for
// one quantum setting: a near stream walking the low LBAs and a far
// stream at hotpathAntFarLBA, both registered, so the barrier dispatch
// interleaves them request by request. Without the quantum the elevator
// parks on the near stream until the aging bound boosts the far one —
// giant periodic seeks and a far-stream wait pinned at the bound. With
// it, switches happen every few blocks and the shared band.wait tail
// drops well under the bound.
func runHotpathAnticipatory(quantum int) HotpathAnticipatoryRun {
	run := HotpathAnticipatoryRun{Quantum: quantum}
	set := obs.NewSet()
	dev := device.New(device.Cheetah15K())
	g := iosched.NewGroup(iosched.Config{
		Readahead:           iosched.DisableReadahead,
		AgingBound:          hotpathAntAgingBound,
		AnticipatoryQuantum: quantum,
		Obs:                 set,
	})
	s := g.Attach(dev, dss.DefaultPolicySpace().Sequential())
	// Park the head low so the near stream owns the elevator at start.
	dev.Access(0, device.Read, 0, 1)

	var near, far simclock.Clock
	g.Register(&near)
	g.Register(&far)
	var wg sync.WaitGroup
	stream := func(clk *simclock.Clock, base int64, tenant dss.TenantID) {
		defer wg.Done()
		defer g.Unregister(clk)
		for i := 0; i < hotpathAntReads; i++ {
			// Stride 2 keeps same-stream neighbours from coalescing into
			// one grant, which would hide the per-request waits.
			end := s.Submit(clk.Now(), device.Read, base+int64(2*i), 1,
				hotpathMeasuredClass, tenant, clk)
			clk.AdvanceTo(end)
		}
	}
	wg.Add(2)
	go stream(&near, 0, hotpathNearTenant)
	go stream(&far, hotpathAntFarLBA, hotpathFarTenant)
	wg.Wait()
	g.Drain()

	st := s.Stats()
	run.StreamSwitches = st.StreamSwitches
	run.Boosted = st.Boosted
	hv := set.Registry().Histogram("iosched.band.wait",
		obs.L("dev", dev.Spec().Name), obs.LInt("class", int64(hotpathMeasuredClass)))
	h := hv.Snapshot()
	run.BandWaitP50 = h.Quantile(0.50)
	run.BandWaitP99 = h.Quantile(0.99)
	ts := s.TenantStats()
	run.NearMaxWait = ts[hotpathNearTenant].MaxWait
	run.FarMaxWait = ts[hotpathFarTenant].MaxWait
	run.Makespan = makespan(near.Now(), far.Now())
	return run
}

// HotpathAll runs the arm with the quantum off and on.
func HotpathAll() HotpathResult {
	var res HotpathResult
	for _, quantum := range []int{0, hotpathAntQuantum} {
		res.Anticipatory = append(res.Anticipatory, runHotpathAnticipatory(quantum))
	}
	return res
}

// Format renders the anticipatory before/after.
func (res HotpathResult) Format() string {
	var b strings.Builder
	b.WriteString("Anticipatory HDD dispatch (two registered streams, near/far; virtual time, deterministic):\n")
	fmt.Fprintf(&b, "%8s %9s %8s %12s %12s %12s %12s %12s\n",
		"quantum", "switches", "boosts", "wait-p50", "wait-p99", "near-max", "far-max", "makespan")
	for _, r := range res.Anticipatory {
		fmt.Fprintf(&b, "%8d %9d %8d %12s %12s %12s %12s %12s\n",
			r.Quantum, r.StreamSwitches, r.Boosted,
			fmtLat(r.BandWaitP50), fmtLat(r.BandWaitP99),
			fmtLat(r.NearMaxWait), fmtLat(r.FarMaxWait), fmtLat(r.Makespan))
	}
	fmt.Fprintf(&b, "quantum 0 = elevator + aging (%s bound) only; the quantum trades bounded extra seeks for a band.wait tail well under the bound\n",
		hotpathAntAgingBound)
	return b.String()
}

package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/iosched"
	"hstoragedb/internal/simclock"
	"hstoragedb/internal/tpch"
)

// tenantsAgingBound is the aging bound the tenants experiment runs both
// arms under. It is deliberately larger than the scheduler default: the
// fairness window a weight-1 tenant is asked to tolerate grows with the
// weight skew, and a tight bound would let aging (which is FIFO by age)
// override the weighted order before shares can converge. The
// experiment asserts that no request ever waits past this bound.
const tenantsAgingBound = 100 * time.Millisecond

// TenantSpec configures one tenant of the multi-tenant fairness
// experiment: its identity and its fair-share weight.
type TenantSpec struct {
	ID     dss.TenantID
	Weight float64
}

// DefaultTenantSpecs returns the skewed population the tenants
// experiment uses by default: four tenants with weights 4:2:1:1.
func DefaultTenantSpecs() []TenantSpec {
	return []TenantSpec{{1, 4}, {2, 2}, {3, 1}, {4, 1}}
}

// TenantResult is one tenant's outcome in a tenants-experiment run.
type TenantResult struct {
	ID     dss.TenantID
	Weight float64

	// ShareWant is the tenant's weight fraction of the population;
	// ShareGot is its measured fraction of foreground blocks granted on
	// the contended device during the saturated window (from the run's
	// start until the first scan stream completes, i.e. while every
	// tenant was backlogged).
	ShareWant float64
	ShareGot  float64
	// ScanBlocks is the tenant's granted foreground blocks on the
	// contended device inside that window.
	ScanBlocks int64

	// Commits counts the tenant's OLTP transactions; CommitsPerSec
	// normalizes them by the OLTP phase's virtual makespan.
	Commits       int64
	CommitsPerSec float64

	// P50, P99 and MaxLat summarize the tenant's end-to-end request
	// latency across both devices; MaxWait is the longest any of its
	// requests waited for a grant, which the aging bound caps.
	P50, P99, MaxLat time.Duration
	MaxWait          time.Duration
}

// TenantsRun is the outcome of the multi-tenant fairness experiment
// under one storage mode and one scheduler arm.
type TenantsRun struct {
	Mode hybrid.Mode
	// Fair is true for the weighted-fair-share arm; false for the
	// class-only baseline (today's scheduler: same classes, no tenant
	// differentiation).
	Fair bool
	// AgingBound is the starvation bound both arms ran under.
	AgingBound time.Duration

	Tenants []TenantResult
	// Jain is Jain's fairness index over the tenants' weight-normalized
	// shares x_i = ShareGot_i / ShareWant_i: 1.0 means every tenant got
	// exactly its weighted entitlement.
	Jain float64
	// MaxShareErr is the largest |ShareGot - ShareWant| across tenants.
	MaxShareErr float64
	// WindowBlocks is the total foreground blocks granted on the
	// contended device during the saturated window; Makespan the
	// latest stream clock after background settle.
	WindowBlocks int64
	Makespan     time.Duration
	// Commits aggregates OLTP transactions across tenants.
	Commits int64
}

// RunTenants runs the multi-tenant contention workload on one storage
// configuration: every tenant drives one saturating scan stream and one
// transactional OLTP worker, concurrently.
//
// The scan streams submit sequential-class reads over disjoint LBA
// regions straight through the dss.Storage interface as a registered
// closed population — deliberately below the DBMS buffer pool, because
// co-tenant scans of the same relation would otherwise dedupe in the
// shared pool and the device would never see the per-tenant contention
// being measured. The OLTP workers run through the full engine (buffer
// pool, lock manager, WAL) via tpch.RunOLTPWorkers with per-worker
// tenant bindings. Shares are measured on the contended device (the
// HDD when the mode has one, else the SSD) over the window in which
// every scan stream is still backlogged.
func (e *Env) RunTenants(mode hybrid.Mode, specs []TenantSpec, scanBlocks, txnsPerTenant int, fair bool) (TenantsRun, error) {
	run := TenantsRun{Mode: mode, Fair: fair, AgingBound: tenantsAgingBound}
	if len(specs) == 0 {
		specs = DefaultTenantSpecs()
	}
	for _, sp := range specs {
		if sp.Weight <= 0 || sp.ID == dss.DefaultTenant {
			return run, fmt.Errorf("tenants: spec %+v needs a positive weight and a non-zero tenant ID", sp)
		}
	}
	sched := iosched.Config{AgingBound: tenantsAgingBound}
	if fair {
		sched.TenantWeights = make(map[dss.TenantID]float64, len(specs))
		for _, sp := range specs {
			sched.TenantWeights[sp.ID] = sp.Weight
		}
	}
	cfg := e.baseConfig(mode)
	cfg.Storage.Sched = sched
	rig, err := e.newTxnRig(cfg)
	if err != nil {
		return run, err
	}
	inst, tm := rig.inst, rig.tm

	grp := inst.Sys.Sched()
	contended := inst.Sys.HDD()
	if contended == nil {
		contended = inst.Sys.SSD()
	}
	var contSched *iosched.Scheduler
	for _, s := range grp.Schedulers() {
		if s.Device() == contended {
			contSched = s
		}
	}

	seqClass := dss.DefaultPolicySpace().Sequential()
	clocks := make([]*simclock.Clock, len(specs))
	for i := range specs {
		clocks[i] = &simclock.Clock{}
		grp.Register(clocks[i])
	}

	var (
		snapOnce sync.Once
		window   map[dss.TenantID]iosched.TenantStats
	)
	fns := make([]func() error, 0, len(specs)+1)
	for i, sp := range specs {
		fns = append(fns, func() error {
			clk := clocks[i]
			defer grp.Unregister(clk)
			// Disjoint per-tenant regions past the dataset, spaced so
			// switching tenants costs a real positioning penalty.
			start := e.Data + int64(i)*(int64(scanBlocks)+8192)
			for b := 0; b < scanBlocks; b++ {
				done := inst.Sys.Submit(clk.Now(), dss.Request{
					Op:     device.Read,
					LBA:    start + int64(b),
					Blocks: 1,
					Class:  seqClass,
					Stream: clk,
					Tenant: sp.ID,
				})
				clk.AdvanceTo(done)
			}
			// The first stream to drain its demand closes the saturated
			// window: shares are meaningful only while every tenant is
			// backlogged. Snapshot before unregistering.
			snapOnce.Do(func() { window = contSched.TenantStats() })
			return nil
		})
	}

	ids := make([]dss.TenantID, len(specs))
	for i, sp := range specs {
		ids[i] = sp.ID
	}
	var workersRes tpch.WorkersResult
	fns = append(fns, func() (err error) {
		workersRes, err = e.DS.RunOLTPWorkers(tm, inst, len(specs), txnsPerTenant, e.Cfg.Seed, 0, ids...)
		return err
	})
	if err := runStreams(fns...); err != nil {
		return run, err
	}

	settle := inst.NewSession()
	inst.Mgr.Wait(&settle.Clk)

	if window == nil {
		window = contSched.TenantStats()
	}
	var totalWin int64
	for _, sp := range specs {
		totalWin += window[sp.ID].Blocks
	}
	var totalWeight float64
	for _, sp := range specs {
		totalWeight += sp.Weight
	}
	full := contSched.TenantStats()

	// Per-tenant end-to-end latency merged across both devices.
	lat := make(map[dss.TenantID]device.LatencyHist)
	for _, dev := range []*device.Device{inst.Sys.SSD(), inst.Sys.HDD()} {
		if dev == nil {
			continue
		}
		for t, h := range dev.Stats().PerTenant {
			m := lat[dss.TenantID(t)]
			m.Merge(h)
			lat[dss.TenantID(t)] = m
		}
	}

	var sumX, sumX2 float64
	for i, sp := range specs {
		tr := TenantResult{
			ID:         sp.ID,
			Weight:     sp.Weight,
			ShareWant:  sp.Weight / totalWeight,
			ScanBlocks: window[sp.ID].Blocks,
			MaxWait:    full[sp.ID].MaxWait,
		}
		if totalWin > 0 {
			tr.ShareGot = float64(tr.ScanBlocks) / float64(totalWin)
		}
		d := workersRes.Drivers[i]
		tr.Commits = d.NewOrders + d.Payments + d.OrderStatuses
		tr.CommitsPerSec = perSec(tr.Commits, workersRes.Elapsed)
		h := lat[sp.ID]
		tr.P50, tr.P99, tr.MaxLat = h.Quantile(0.50), h.Quantile(0.99), h.Max
		x := tr.ShareGot / tr.ShareWant
		sumX += x
		sumX2 += x * x
		if diff := tr.ShareGot - tr.ShareWant; diff > run.MaxShareErr {
			run.MaxShareErr = diff
		} else if -diff > run.MaxShareErr {
			run.MaxShareErr = -diff
		}
		run.Commits += tr.Commits
		run.Tenants = append(run.Tenants, tr)
	}
	if sumX2 > 0 {
		run.Jain = sumX * sumX / (float64(len(specs)) * sumX2)
	}
	run.WindowBlocks = totalWin

	ends := []time.Duration{workersRes.Elapsed, settle.Clk.Now()}
	for _, clk := range clocks {
		ends = append(ends, clk.Now())
	}
	run.Makespan = makespan(ends...)
	return run, rig.close()
}

// TenantsRuns is the multi-tenant fairness report.
type TenantsRuns []TenantsRun

// TenantsAll runs the tenants experiment across the flagship modes,
// fair shares off (the class-only baseline) and on, in that order: the
// SSD-only pair isolates scheduler fairness on a device where
// interleaving tenants is nearly free, and the hStorage pair puts the
// same scheduler in front of the seek-bound HDD, behind the hybrid
// cache (which the tenants' Rule 1 scans bypass).
func (e *Env) TenantsAll(specs []TenantSpec, scanBlocks, txnsPerTenant int) (TenantsRuns, error) {
	if scanBlocks <= 0 {
		scanBlocks = 3000
	}
	if txnsPerTenant <= 0 {
		txnsPerTenant = 30
	}
	out := make(TenantsRuns, 0, 4)
	for _, mode := range []hybrid.Mode{hybrid.SSDOnly, hybrid.HStorage} {
		for _, fair := range []bool{false, true} {
			run, err := e.RunTenants(mode, specs, scanBlocks, txnsPerTenant, fair)
			if err != nil {
				return nil, err
			}
			out = append(out, run)
		}
	}
	return out, nil
}

// Format renders the multi-tenant fairness report: per-tenant shares
// against weights, commit throughput, latency percentiles, and Jain's
// index, fair shares vs the class-only baseline.
func (runs TenantsRuns) Format() string {
	var b strings.Builder
	b.WriteString("multi-tenant fairness experiment: weighted fair shares vs class-only scheduler\n")
	for _, r := range runs {
		arm := "class-only"
		if r.Fair {
			arm = "fair-shares"
		}
		fmt.Fprintf(&b, "\n%s, %s: Jain=%.3f maxShareErr=%.1f%% windowBlocks=%d commits=%d makespan=%s aging=%s\n",
			r.Mode, arm, r.Jain, 100*r.MaxShareErr, r.WindowBlocks, r.Commits, fmtDur(r.Makespan), r.AgingBound)
		fmt.Fprintf(&b, "  %-8s %-7s %11s %11s %11s %10s %12s %12s %12s\n",
			"tenant", "weight", "share-want", "share-got", "scan-blk", "commits/s", "p50", "p99", "max-wait")
		for _, t := range r.Tenants {
			fmt.Fprintf(&b, "  %-8d %-7.1f %10.1f%% %10.1f%% %11d %10.1f %12s %12s %12s\n",
				int(t.ID), t.Weight, 100*t.ShareWant, 100*t.ShareGot, t.ScanBlocks,
				t.CommitsPerSec, fmtLat(t.P50), fmtLat(t.P99), fmtLat(t.MaxWait))
		}
	}
	return b.String()
}

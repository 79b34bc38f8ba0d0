// Package device models block storage devices with simulated service
// times.
//
// The paper's hybrid storage system (Section 5, Table 2) pairs a Seagate
// Cheetah 15.7K RPM HDD with an Intel 320 Series SSD. We reproduce both
// with parametric latency models:
//
//   - HDD: a request that does not continue the previous request's LBA run
//     pays an average seek plus half-rotation latency; all requests pay a
//     transfer cost at the sequential rate. This yields the property the
//     paper's Rule 1 depends on: HDD sequential bandwidth is comparable to
//     SSD bandwidth, while HDD random access is orders of magnitude slower.
//   - SSD: a non-contiguous request pays the per-request random latency
//     (the reciprocal of the device's rated IOPS); all requests pay a
//     transfer cost at the rated sequential bandwidth.
//
// Devices are shared, serially served resources: concurrent request
// streams queue behind one another (see simclock.Resource).
package device

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hstoragedb/internal/obs"
	"hstoragedb/internal/simclock"
)

// BlockSize is the unit of all device I/O in bytes. It matches the 8 KB
// page size of the PostgreSQL prototype the paper instruments.
const BlockSize = 8192

// Op is the direction of an access.
type Op int

const (
	// Read transfers blocks from the device.
	Read Op = iota
	// Write transfers blocks to the device.
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Spec holds the performance parameters of a device model.
type Spec struct {
	Name string

	// SeqReadBps and SeqWriteBps are sequential bandwidths in bytes/s.
	SeqReadBps  float64
	SeqWriteBps float64

	// RandReadLat and RandWriteLat are the positioning penalties paid by a
	// request that does not continue the preceding request's LBA run. For
	// an HDD this is seek + rotational latency; for an SSD it is 1/IOPS.
	RandReadLat  time.Duration
	RandWriteLat time.Duration

	// NearSeekLat, when non-zero, replaces the positioning penalty for
	// jumps shorter than NearDistance blocks (track-to-track seeks on an
	// HDD, e.g. interleaved writes to a handful of temp files). Zero
	// means every discontiguous access pays the full penalty.
	NearSeekLat  time.Duration
	NearDistance int64

	// Channels is the device's internal service parallelism: how many
	// requests it works on simultaneously. An SSD stripes over NAND
	// channels, so concurrent submitters multiply its throughput, while
	// a lone synchronous stream — one request in flight at a time —
	// gains nothing; an HDD has a single actuator (Channels 0 or 1:
	// strictly serial service). This is the hardware seam that rewards
	// genuinely concurrent request streams.
	Channels int
}

// Cheetah15K returns the Seagate Cheetah 15.7K RPM 300 GB HDD used at
// level two of the paper's storage hierarchy. 15,000 RPM gives a 2 ms
// average rotational latency; average seek is ~3.4 ms; sustained transfer
// ~150 MB/s.
func Cheetah15K() Spec {
	return Spec{
		Name:         "cheetah-15k7",
		SeqReadBps:   150e6,
		SeqWriteBps:  150e6,
		RandReadLat:  5400 * time.Microsecond, // 3.4 ms seek + 2.0 ms rotation
		RandWriteLat: 5400 * time.Microsecond,
		NearSeekLat:  2700 * time.Microsecond, // 0.7 ms track-to-track + rotation
		NearDistance: 4096,
	}
}

// Intel320 returns the Intel 320 Series 300 GB SSD from Table 2 of the
// paper: 270 MB/s / 205 MB/s sequential read/write, 39.5K / 23K IOPS
// random read/write.
func Intel320() Spec {
	return Spec{
		Name:         "intel-320",
		SeqReadBps:   270e6,
		SeqWriteBps:  205e6,
		RandReadLat:  time.Second / 39500,
		RandWriteLat: time.Second / 23000,
		// The 320 stripes over ten NAND channels (rated IOPS are
		// aggregate, reached only at queue depth — a synchronous single
		// stream sees per-request latency; the transfer stage caps
		// aggregate bandwidth at the rated sequential rate either way).
		Channels: 10,
	}
}

// LatencyHist is a fixed-bucket latency histogram for one request class.
// It records end-to-end request latency: queueing delay plus service
// time, as observed by the I/O scheduler that granted the request. It is
// the shared observability histogram (the bucket ladder and quantile
// interpolation originated here and moved to package obs when the
// metrics registry unified telemetry across layers).
type LatencyHist = obs.Histogram

// Stats are cumulative counters for one device.
type Stats struct {
	Reads       int64
	Writes      int64
	BlocksRead  int64
	BlocksWrite int64
	SeqAccesses int64 // requests that continued the prior LBA run
	RandAccess  int64 // requests that paid the positioning penalty
	BusyTime    time.Duration

	// PerClass holds end-to-end latency histograms keyed by request
	// class (the integer value of a dss.Class; the device package cannot
	// import dss without a cycle). Only latency-sensitive foreground
	// requests are recorded: background flushes and destages nobody
	// waits on are excluded so they cannot pollute tail percentiles.
	PerClass map[int]LatencyHist

	// PerTenant holds the same end-to-end foreground latency histograms
	// keyed by tenant (the integer value of a dss.TenantID). The I/O
	// scheduler records a tenant sample only for attributed traffic —
	// a non-zero tenant ID, or any tenant while fair sharing is on —
	// so single-tenant runs pay nothing for the map.
	PerTenant map[int]LatencyHist
}

// Device is a simulated block device. All methods are safe for concurrent
// use. With one service channel (the default) requests serialize in
// arrival order exactly as a single-actuator disk does. With
// Spec.Channels > 1 the per-request positioning stage runs on the
// least-busy channel while data transfer serializes on a shared
// bandwidth resource, so concurrent submitters multiply request
// throughput up to the spec's aggregate bandwidth — while a synchronous
// single stream, with one request in flight at a time, observes exactly
// the single-channel service times.
type Device struct {
	spec Spec
	// The service channels and, with Channels > 1, the shared transfer
	// stage. Resources take no lock: every call is made under mu.
	res []simclock.Resource
	bw  *simclock.Resource

	// horizon is the latest completion any Access has returned: the
	// instant the device becomes fully idle. Written under mu, read
	// without a lock.
	horizon atomic.Int64

	mu          sync.Mutex
	nextLBA     int64 // LBA immediately after the last access; -1 initially
	stats       Stats
	hists       map[int]*LatencyHist
	tenantHists map[int]*LatencyHist

	// Registry instruments, nil (inert) until Use attaches a set. The
	// scalar instruments are cached here; per-class and per-tenant
	// histogram mirrors are cached in the maps to keep the hot path to
	// one registry lookup per new key.
	reg         *obs.Registry
	mReads      *obs.Counter
	mWrites     *obs.Counter
	mBlocksRead *obs.Counter
	mBlocksWr   *obs.Counter
	mBusyTime   *obs.Counter
	mBusy       *obs.Gauge
	mClassLat   map[int]*obs.HistVar
	mTenantLat  map[int]*obs.HistVar
}

// New creates a device from a spec.
func New(spec Spec) *Device {
	n := spec.Channels
	if n < 1 {
		n = 1
	}
	d := &Device{spec: spec, res: make([]simclock.Resource, n), nextLBA: -1}
	if n > 1 {
		d.bw = &simclock.Resource{}
	}
	return d
}

// Spec returns the device's performance parameters.
func (d *Device) Spec() Spec { return d.spec }

// Use attaches an observability set: the device registers its counters
// (`device.reads`, `device.writes`, `device.blocks.read`,
// `device.blocks.write`, `device.busytime`), the `device.busy` gauge
// (the busy horizon in simulated nanoseconds), and per-class/per-tenant
// mirrors of its latency histograms (`device.latency`), all labeled
// with the device name. A nil set detaches.
func (d *Device) Use(set *obs.Set) {
	d.mu.Lock()
	defer d.mu.Unlock()
	reg := set.Registry()
	d.reg = reg
	dev := obs.L("dev", d.spec.Name)
	d.mReads = reg.Counter("device.reads", dev)
	d.mWrites = reg.Counter("device.writes", dev)
	d.mBlocksRead = reg.Counter("device.blocks.read", dev)
	d.mBlocksWr = reg.Counter("device.blocks.write", dev)
	d.mBusyTime = reg.Counter("device.busytime", dev)
	d.mBusy = reg.Gauge("device.busy", dev)
	d.mClassLat = make(map[int]*obs.HistVar)
	d.mTenantLat = make(map[int]*obs.HistVar)
}

// latMirrorLocked returns (caching in mirrors on first use) the registry
// mirror of the latency histogram labelled label=key. Caller holds d.mu.
func (d *Device) latMirrorLocked(mirrors map[int]*obs.HistVar, label string, key int) *obs.HistVar {
	if d.reg == nil {
		return nil
	}
	hv := mirrors[key]
	if hv == nil {
		hv = d.reg.Histogram("device.latency",
			obs.L("dev", d.spec.Name), obs.LInt(label, int64(key)))
		mirrors[key] = hv
	}
	return hv
}

// serviceTimeLocked computes the positioning and transfer components of
// an access of `blocks` blocks at `lba`, updates the
// sequential-detection cursor and counts the access. Caller holds d.mu.
func (d *Device) serviceTimeLocked(op Op, lba int64, blocks int) (pos, xfer time.Duration) {
	sequential := d.nextLBA == lba
	near := false
	if !sequential && d.spec.NearSeekLat > 0 && d.nextLBA >= 0 {
		dist := lba - d.nextLBA
		if dist < 0 {
			dist = -dist
		}
		near = dist < d.spec.NearDistance
	}
	d.nextLBA = lba + int64(blocks)
	if sequential {
		d.stats.SeqAccesses++
	} else {
		d.stats.RandAccess++
	}
	bytes := float64(blocks) * BlockSize
	bps, randLat := d.spec.SeqReadBps, d.spec.RandReadLat
	switch op {
	case Read:
		d.stats.Reads++
		d.stats.BlocksRead += int64(blocks)
		d.mReads.Inc()
		d.mBlocksRead.Add(int64(blocks))
	case Write:
		bps, randLat = d.spec.SeqWriteBps, d.spec.RandWriteLat
		d.stats.Writes++
		d.stats.BlocksWrite += int64(blocks)
		d.mWrites.Inc()
		d.mBlocksWr.Add(int64(blocks))
	}
	xfer = time.Duration(bytes / bps * float64(time.Second))
	switch {
	case sequential:
	case near:
		pos = d.spec.NearSeekLat
	default:
		pos = randLat
	}
	d.stats.BusyTime += pos + xfer
	d.mBusyTime.Add(int64(pos + xfer))
	return pos, xfer
}

// channelFor returns the service channel a new request should occupy:
// the one that frees up first.
func (d *Device) channelFor() *simclock.Resource {
	best := 0
	for i := 1; i < len(d.res); i++ {
		if d.res[i].BusyUntil() < d.res[best].BusyUntil() {
			best = i
		}
	}
	return &d.res[best]
}

// Access schedules a request arriving at virtual time `at` and returns its
// completion time. On a single-channel device the whole service occupies
// the one channel in arrival order; on a multi-channel device the
// positioning stage runs on the least-busy channel and the transfer
// serializes on the shared bandwidth stage. A zero-block access returns
// the device's busy horizon without occupying anything.
func (d *Device) Access(at time.Duration, op Op, lba int64, blocks int) time.Duration {
	if blocks <= 0 {
		return max(at, d.BusyUntil())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	pos, xfer := d.serviceTimeLocked(op, lba, blocks)
	var end time.Duration
	if d.bw == nil {
		end = d.res[0].Serve(at, pos+xfer)
	} else {
		end = d.bw.Serve(d.channelFor().Serve(at, pos), xfer)
	}
	// A Resource never ends a request before its own horizon, and every
	// access ends on the same resource (the transfer stage, or the one
	// channel), so end is the latest completion yet.
	d.horizon.Store(int64(end))
	d.mBusy.SetMax(int64(end))
	return end
}

// BusyUntil reports the virtual time at which the device becomes fully
// idle: the latest completion any Access has returned (every resource's
// horizon is the end its last Serve returned, and a channel's end never
// passes the transfer-stage end of the same access). It takes no lock.
// The I/O scheduler consults it to measure how long a queued request has
// effectively been waiting (its aging bound); the storage manager
// settles end-of-run clocks against it.
func (d *Device) BusyUntil() time.Duration { return time.Duration(d.horizon.Load()) }

// HeadLBA reports the LBA immediately after the last access (-1 before
// any): the position the next positioning cost is measured from. The
// I/O scheduler's elevator tie-break grants the nearest same-rank
// request, which turns queue depth into shorter seeks.
func (d *Device) HeadLBA() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nextLBA
}

// LatencySample is one completed-request latency. Class keys are
// dss.Class values and Tenant keys dss.TenantID values; the scheduler owns
// both mappings and the decision of which requests are attributed: a
// negative Tenant is recorded per class only.
type LatencySample struct {
	Class  int
	Tenant int
	Lat    time.Duration
}

// ObserveLatency records end-to-end request latencies in the device's
// per-class and per-tenant histogram sets under one lock acquisition:
// one sample from a readahead hit, or every request a coalesced grant
// completed.
func (d *Device) ObserveLatency(samples ...LatencySample) {
	d.mu.Lock()
	for _, s := range samples {
		histLocked(&d.hists, s.Class).Observe(s.Lat)
		d.latMirrorLocked(d.mClassLat, "class", s.Class).Observe(s.Lat)
		if s.Tenant >= 0 {
			histLocked(&d.tenantHists, s.Tenant).Observe(s.Lat)
			d.latMirrorLocked(d.mTenantLat, "tenant", s.Tenant).Observe(s.Lat)
		}
	}
	d.mu.Unlock()
}

// histLocked returns the histogram under key in *hists, creating the map
// and the histogram on first use. Caller holds d.mu.
func histLocked(hists *map[int]*LatencyHist, key int) *LatencyHist {
	h := (*hists)[key]
	if h == nil {
		if *hists == nil {
			*hists = make(map[int]*LatencyHist)
		}
		h = &LatencyHist{}
		(*hists)[key] = h
	}
	return h
}

// Stats returns a snapshot of the device counters, including per-class
// and per-tenant latency histograms.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	if len(d.hists) > 0 {
		s.PerClass = make(map[int]LatencyHist, len(d.hists))
		for c, h := range d.hists {
			s.PerClass[c] = *h
		}
	}
	if len(d.tenantHists) > 0 {
		s.PerTenant = make(map[int]LatencyHist, len(d.tenantHists))
		for t, h := range d.tenantHists {
			s.PerTenant[t] = *h
		}
	}
	return s
}

// Reset clears counters, histograms, the queue, and the
// sequential-detection cursor.
func (d *Device) Reset() {
	d.mu.Lock()
	d.stats = Stats{}
	d.hists = nil
	d.tenantHists = nil
	d.nextLBA = -1
	for i := range d.res {
		d.res[i].Reset()
	}
	if d.bw != nil {
		d.bw.Reset()
	}
	d.horizon.Store(0)
	d.mu.Unlock()
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	s := d.Stats()
	return fmt.Sprintf("%s{r=%d w=%d seq=%d rand=%d busy=%v}",
		d.spec.Name, s.Reads, s.Writes, s.SeqAccesses, s.RandAccess, s.BusyTime)
}

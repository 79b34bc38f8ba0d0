// Package hybrid implements the hybrid storage system of hStorage-DB's
// case study (Section 5): a two-level hierarchy with an SSD cache at level
// one and an HDD at level two. One storage shell (core.go) owns the
// devices, the lookup table and the mechanics of the cache actions; a
// placement policy decides which action a block gets — the paper's
// priority-based selective allocation/eviction (HStorage), or one of the
// monitoring-based baselines (LRU, ARC). The passthrough configurations
// (HDDOnly, SSDOnly), the shell with no policy, provide the evaluation's
// lower and upper bounds.
package hybrid

import (
	"fmt"
	"slices"
	"strings"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/iosched"
	"hstoragedb/internal/obs"
)

// Mode selects the storage configuration used by the evaluation
// (Section 6.3 runs every query under the paper's four; ARC is ours).
type Mode int

const (
	// HDDOnly serves every request from the hard disk.
	HDDOnly Mode = iota
	// LRU manages the SSD cache with the classical LRU algorithm,
	// ignoring request classes.
	LRU
	// HStorage manages the SSD cache with priority-based selective
	// allocation and selective eviction.
	HStorage
	// SSDOnly serves every request from the SSD (the paper's ideal case).
	SSDOnly
	// ARC manages the SSD cache with the adaptive replacement cache
	// (Megiddo & Modha, FAST 2003) — an extension baseline beyond the
	// paper's LRU, representing the stronger monitoring-based policies
	// its related-work section cites.
	ARC
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case HDDOnly:
		return "HDD-only"
	case LRU:
		return "LRU"
	case HStorage:
		return "hStorage-DB"
	case SSDOnly:
		return "SSD-only"
	case ARC:
		return "ARC"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Modes lists the paper's four configurations in the order it plots
// them; the ARC extension baseline is not among them.
func Modes() []Mode { return []Mode{HDDOnly, LRU, HStorage, SSDOnly} }

// Config describes a storage system to build.
type Config struct {
	Mode Mode

	// CacheBlocks is the SSD cache capacity in blocks. Ignored by the
	// passthrough modes.
	CacheBlocks int

	// Policy is the QoS policy space; zero value means
	// dss.DefaultPolicySpace(). Only HStorage consults it.
	Policy dss.PolicySpace

	// SSDSpec/HDDSpec override the device models; zero values mean
	// Intel320/Cheetah15K.
	SSDSpec device.Spec
	HDDSpec device.Spec

	// AsyncReadAlloc, when true, places read-allocated blocks into the
	// cache off the critical path (the paper's "asynchronous read
	// allocation" footnote). The default (false) is synchronous
	// allocation, as in the prototype.
	AsyncReadAlloc bool

	// Sched parameterizes the per-device QoS I/O scheduler every
	// configuration routes its accesses through. The zero value enables
	// it with defaults; set Sched.FIFO for the scheduler-off ablation.
	// Sched.TenantWeights additionally turns on tenant-weighted fair
	// sharing of device time within each class band; the cache itself
	// never reads the weights, it only bills each destage to a tenant.
	Sched iosched.Config

	// Obs attaches the observability layer to the whole storage system:
	// the cache registers hit/miss/eviction counters (labeled by mode),
	// and the set is forwarded to the I/O scheduler and devices
	// (overriding any Sched.Obs). Nil disables (the default).
	Obs *obs.Set
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Policy.N == 0 {
		c.Policy = dss.DefaultPolicySpace()
	}
	if c.SSDSpec.Name == "" {
		c.SSDSpec = device.Intel320()
	}
	if c.HDDSpec.Name == "" {
		c.HDDSpec = device.Cheetah15K()
	}
	return c
}

// ClassStats aggregates cache behaviour for one request class. Reads and
// writes are tracked separately because the paper's per-class tables
// (Tables 4-7) count reads: writes of temporary data, for example, are
// always cache misses by construction (Section 6.3.3).
type ClassStats struct {
	Requests       int64
	AccessedBlocks int64
	Hits           int64 // block-granularity cache hits (reads + writes)

	ReadBlocks  int64
	ReadHits    int64
	WriteBlocks int64
	WriteHits   int64
}

// Snapshot is a point-in-time view of a storage system's counters. The
// experiment tables (Tables 4-7 of the paper) are printed from snapshots.
type Snapshot struct {
	Mode         Mode
	PerClass     map[dss.Class]ClassStats
	CachedBlocks int
	// GroupBlocks is the occupancy of every list of the priority cache —
	// the priority groups 1..N, the write buffer and the log group — read
	// from the list lengths when the snapshot is taken; nil in the other
	// modes. It sums to CachedBlocks.
	GroupBlocks map[dss.Class]int

	Hits        int64
	Misses      int64
	ReadAllocs  int64
	WriteAllocs int64
	Bypasses    int64
	Reallocs    int64
	Evictions   int64
	DirtyEvict  int64
	Trimmed     int64
	WBFlushes   int64
}

// HitRatio returns total hits over total accessed blocks.
func (s Snapshot) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Class returns the stats bucket for class c (zero value if absent).
func (s Snapshot) Class(c dss.Class) ClassStats { return s.PerClass[c] }

// String renders a compact multi-line summary.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: cached=%d hits=%d misses=%d (%.1f%%) evict=%d trim=%d\n",
		s.Mode, s.CachedBlocks, s.Hits, s.Misses, 100*s.HitRatio(), s.Evictions, s.Trimmed)
	if s.GroupBlocks != nil {
		b.WriteString("  groups:")
		for _, g := range sortedClasses(s.GroupBlocks) {
			fmt.Fprintf(&b, " %s=%d", g, s.GroupBlocks[g])
		}
		b.WriteByte('\n')
	}
	for _, c := range sortedClasses(s.PerClass) {
		cs := s.PerClass[c]
		ratio := 0.0
		if cs.AccessedBlocks > 0 {
			ratio = float64(cs.Hits) / float64(cs.AccessedBlocks)
		}
		fmt.Fprintf(&b, "  %-12s req=%-10d blocks=%-10d hits=%-10d ratio=%.1f%%\n",
			c, cs.Requests, cs.AccessedBlocks, cs.Hits, 100*ratio)
	}
	return b.String()
}

// sortedClasses returns the keys of a per-class map in ascending order.
func sortedClasses[V any](m map[dss.Class]V) []dss.Class {
	classes := make([]dss.Class, 0, len(m))
	for c := range m {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	return classes
}

// System is a storage configuration under test: a classified-request
// block store with inspectable counters.
type System interface {
	dss.Storage
	// Stats returns a snapshot of the counters.
	Stats() Snapshot
	// ResetStats clears the counters but not the cache contents.
	ResetStats()
	// Mode reports which configuration this is.
	Mode() Mode
	// SSD and HDD expose the underlying devices (either may be nil for
	// the passthrough modes).
	SSD() *device.Device
	HDD() *device.Device
	// Sched exposes the I/O scheduling domain of this system's devices:
	// experiment streams register with it for closed-population
	// dispatch, and the storage manager drains it before settling
	// device busy horizons.
	Sched() *iosched.Group
}

// New builds a storage system for the given configuration.
func New(cfg Config) (System, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		// One observability set serves the whole stack: the scheduler
		// group registers its own instruments and attaches the devices.
		cfg.Sched.Obs = cfg.Obs
	}
	switch cfg.Mode {
	case HDDOnly, SSDOnly:
	case LRU, HStorage, ARC:
		if cfg.CacheBlocks <= 0 {
			return nil, fmt.Errorf("hybrid: %v mode needs CacheBlocks > 0", cfg.Mode)
		}
	default:
		return nil, fmt.Errorf("hybrid: unknown mode %v", cfg.Mode)
	}
	c := newCore(cfg)
	switch cfg.Mode {
	case LRU:
		c.pol = newLRUPolicy(c)
	case HStorage:
		c.pol = newPriorityPolicy(c, cfg)
	case ARC:
		c.pol = newARCPolicy(c)
	}
	return c, nil
}

// statsBase carries the counters of a storage system, plus their
// registry mirrors (`cache.hits`, `cache.misses`, `cache.evictions`,
// `cache.evictions.dirty`, labeled by mode; nil and inert without
// Config.Obs).
type statsBase struct {
	mode     Mode
	perClass map[dss.Class]*ClassStats
	snap     Snapshot

	mHits       *obs.Counter
	mMisses     *obs.Counter
	mEvict      *obs.Counter
	mDirtyEvict *obs.Counter
}

func newStatsBase(mode Mode, set *obs.Set) statsBase {
	sb := statsBase{mode: mode, perClass: make(map[dss.Class]*ClassStats)}
	if reg := set.Registry(); reg != nil {
		l := obs.L("mode", mode.String())
		sb.mHits = reg.Counter("cache.hits", l)
		sb.mMisses = reg.Counter("cache.misses", l)
		sb.mEvict = reg.Counter("cache.evictions", l)
		sb.mDirtyEvict = reg.Counter("cache.evictions.dirty", l)
	}
	return sb
}

func (s *statsBase) classStats(c dss.Class) *ClassStats {
	cs := s.perClass[c]
	if cs == nil {
		cs = &ClassStats{}
		s.perClass[c] = cs
	}
	return cs
}

func (s *statsBase) record(c dss.Class, op device.Op, blocks int, hits int64) {
	cs := s.classStats(c)
	cs.Requests++
	cs.AccessedBlocks += int64(blocks)
	cs.Hits += hits
	if op == device.Read {
		cs.ReadBlocks += int64(blocks)
		cs.ReadHits += hits
	} else {
		cs.WriteBlocks += int64(blocks)
		cs.WriteHits += hits
	}
	s.snap.Hits += hits
	s.snap.Misses += int64(blocks) - hits
	s.mHits.Add(hits)
	s.mMisses.Add(int64(blocks) - hits)
}

func (s *statsBase) snapshot(cached int) Snapshot {
	out := s.snap
	out.Mode = s.mode
	out.CachedBlocks = cached
	out.PerClass = make(map[dss.Class]ClassStats, len(s.perClass))
	for c, cs := range s.perClass {
		out.PerClass[c] = *cs
	}
	return out
}

func (s *statsBase) reset() {
	s.snap = Snapshot{}
	s.perClass = make(map[dss.Class]*ClassStats)
}

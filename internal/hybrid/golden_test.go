package hybrid

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"hstoragedb/internal/device"
	"hstoragedb/internal/dss"
	"hstoragedb/internal/obs"
)

// The golden replay pins the simulated behaviour of every storage
// configuration: one seeded, single-goroutine request trace is driven
// through each mode, and the counters, both devices, both schedulers and
// a sample of completion times must equal the values committed under
// testdata/. SSD slots are recycled and the scheduler coalesces on
// adjacency, so any change to allocation order, destage order or the
// position of a background submission shows up here.
//
// Nine of the files were generated before the four System implementations
// were folded into one core, and since then have only lost a zero counter
// of the snapshot line with the cache's per-tenant capacity shares. The
// three arms of the priority policy that have a write buffer (hstorage-db,
// its _async twin and hstorage-db_noshares) were regenerated when a flush
// stopped demoting what it flushes to RandHigh; hstorage-db_b0, which
// never flushes, was not. hstorage-db and hstorage-db_async were
// regenerated again when the cache stopped reading tenant weights. A
// missing file is written and the test fails, so deleting a file and
// running the test once regenerates it.

const (
	goldenCache    = 256
	goldenRequests = 24000

	goldenData    = 3 * goldenCache // random-access footprint, LBA 0..
	goldenTemp    = 10_000          // 8 temporary extents of 16 blocks
	goldenLog     = 20_000          // circular log of 64 blocks
	goldenLogSize = 64
	goldenCold    = 30_000 // never-cached scan region
)

// goldenTrace builds the request sequence. It depends only on the seed,
// so every configuration sees the same requests.
func goldenTrace() []dss.Request {
	rng := rand.New(rand.NewSource(1))
	space := dss.DefaultPolicySpace()
	data := func(span int) int64 { return int64(rng.Intn(goldenData - span)) }
	rw := func() device.Op {
		if rng.Intn(3) == 0 {
			return device.Write
		}
		return device.Read
	}
	logHead := 0
	reqs := make([]dss.Request, 0, goldenRequests)
	for len(reqs) < goldenRequests {
		var r dss.Request
		switch k := rng.Intn(100); {
		case k < 30: // random reads, priorities 2..6
			n := 1 + rng.Intn(4)
			r = dss.Request{Op: device.Read, LBA: data(n), Blocks: n, Class: dss.Class(2 + rng.Intn(5))}
		case k < 38: // random writes
			n := 1 + rng.Intn(2)
			r = dss.Request{Op: device.Write, LBA: data(n), Blocks: n, Class: dss.Class(2 + rng.Intn(5))}
		case k < 50: // Rule 4 updates, occasionally a (malformed) read
			n := 1 + rng.Intn(2)
			r = dss.Request{Op: device.Write, LBA: data(n), Blocks: n, Class: dss.ClassWriteBuffer}
			if rng.Intn(8) == 0 {
				r.Op = device.Read
			}
		case k < 59: // log appends, page rewrites, recovery reads, truncation
			switch j := rng.Intn(12); {
			case j == 0:
				r = dss.Request{Op: device.Read, LBA: goldenLog + int64(rng.Intn(goldenLogSize)), Blocks: 1, Class: dss.ClassLog}
			case j == 1:
				start := int64(rng.Intn(goldenLogSize / 2))
				r = dss.Request{Kind: dss.Trim, LBA: goldenLog + start, Blocks: goldenLogSize / 2, Class: space.Eviction()}
			default:
				if j < 8 {
					logHead = (logHead + 1) % goldenLogSize
				}
				r = dss.Request{Op: device.Write, LBA: goldenLog + int64(logHead), Blocks: 1, Class: dss.ClassLog}
			}
		case k < 67: // temporary data: written, read back, deleted
			ext := goldenTemp + 16*int64(rng.Intn(8))
			switch rng.Intn(3) {
			case 0:
				r = dss.Request{Op: device.Write, LBA: ext, Blocks: 16, Class: space.Temporary()}
			case 1:
				r = dss.Request{Op: device.Read, LBA: ext, Blocks: 16, Class: space.Temporary()}
			default:
				r = dss.Request{Kind: dss.Trim, LBA: ext, Blocks: 16, Class: space.Eviction()}
			}
		case k < 75: // sequential scans: cached ranges, cold ranges, single blocks
			n := 8 + rng.Intn(25)
			switch rng.Intn(4) {
			case 0:
				r = dss.Request{Op: device.Read, LBA: data(n), Blocks: n, Class: space.Sequential()}
			case 1:
				r = dss.Request{Op: device.Read, LBA: data(1), Blocks: 1, Class: space.Sequential()}
			case 2:
				r = dss.Request{Op: device.Write, LBA: data(2), Blocks: 2, Class: space.Sequential()}
			default:
				r = dss.Request{Op: device.Read, LBA: goldenCold + int64(rng.Intn(4096)), Blocks: n, Class: space.Sequential()}
			}
		case k < 80: // "non-caching and eviction" hints
			n := 1 + rng.Intn(4)
			r = dss.Request{Op: rw(), LBA: data(n), Blocks: n, Class: space.Eviction()}
		case k < 85: // compaction sweeps, half of them queued as background work
			n := 4 + rng.Intn(13)
			r = dss.Request{Op: rw(), LBA: data(n), Blocks: n, Class: dss.ClassCompaction, Background: rng.Intn(2) == 0}
		case k < 89: // unclassified traffic
			n := 1 + rng.Intn(3)
			r = dss.Request{Op: rw(), LBA: data(n), Blocks: n, Class: dss.ClassNone}
		case k < 95: // background flusher and prefetcher
			n := 1 + rng.Intn(2)
			r = dss.Request{Op: device.Write, LBA: data(n), Blocks: n, Class: dss.ClassWriteBuffer, Background: true}
			if rng.Intn(3) == 0 {
				r.Op, r.Class = device.Read, dss.Class(2+rng.Intn(5))
			}
		default: // TRIM over live data
			n := 1 + rng.Intn(8)
			r = dss.Request{Kind: dss.Trim, LBA: data(n), Blocks: n, Class: space.Eviction()}
		}
		// Tenant 1 issues most of the traffic but holds the smaller
		// weight; some requests are unattributed.
		switch t := rng.Intn(10); {
		case t < 6:
			r.Tenant = 1
		case t < 9:
			r.Tenant = 2
		}
		reqs = append(reqs, r)
	}
	return reqs
}

func fmtHists(b *strings.Builder, label string, m map[int]obs.Histogram) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		h := m[k]
		fmt.Fprintf(b, "    %s %d: count=%d sum=%d max=%d buckets=", label, k, h.Count, h.Sum, h.Max)
		for i, n := range h.Buckets {
			if n != 0 {
				fmt.Fprintf(b, "%d:%d,", i, n)
			}
		}
		b.WriteByte('\n')
	}
}

// replay drives the trace through a new system of configuration cfg,
// calls each with every request's completion time, and drains the
// schedulers.
func replay(t *testing.T, cfg Config, reqs []dss.Request, each func(i int, at time.Duration)) System {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	for i, r := range reqs {
		at = sys.Submit(at, r)
		each(i, at)
	}
	sys.Sched().Drain()
	return sys
}

// goldenRun replays the trace through one configuration and renders
// everything observable about the run.
func goldenRun(t *testing.T, cfg Config, reqs []dss.Request) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("completion of every 97th request (ns):\n")
	sys := replay(t, cfg, reqs, func(i int, at time.Duration) {
		if i%97 == 0 {
			fmt.Fprintf(&b, "  %d %d\n", i, at)
		}
	})

	s := sys.Stats()
	per := s.PerClass
	s.PerClass, s.GroupBlocks = nil, nil
	type fields Snapshot // without the Stringer, so every counter prints
	// GroupBlocks is younger than the files and holds no counter (list
	// lengths, which prioritycache_test.go reads): its empty field is cut
	// so the line keeps the format the files were written in.
	b.WriteString(strings.Replace(fmt.Sprintf("snapshot: %+v\n", fields(s)), " GroupBlocks:map[]", "", 1))
	classes := make([]int, 0, len(per))
	for c := range per {
		classes = append(classes, int(c))
	}
	sort.Ints(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "  class %d: %+v\n", c, per[dss.Class(c)])
	}
	for _, sc := range sys.Sched().Schedulers() {
		d := sc.Device().Stats()
		classLat, tenantLat := d.PerClass, d.PerTenant
		d.PerClass, d.PerTenant = nil, nil
		fmt.Fprintf(&b, "device %s: %+v\n", sc.Device().Spec().Name, d)
		fmtHists(&b, "class", classLat)
		fmtHists(&b, "tenant", tenantLat)
		fmt.Fprintf(&b, "  scheduler: %+v\n", sc.Stats())
	}
	return b.String()
}

// goldenWeights are the tenant weights of every arm but the b = 0 and
// the unweighted ones.
var goldenWeights = map[dss.TenantID]float64{1: 1, 2: 3}

func TestGoldenReplay(t *testing.T) {
	reqs := goldenTrace()
	noBuffer := dss.DefaultPolicySpace()
	noBuffer.WriteBufferFrac = 0
	type arm struct {
		name string
		cfg  Config
	}
	var arms []arm
	for _, mode := range []Mode{HDDOnly, LRU, HStorage, SSDOnly, ARC} {
		for _, async := range []bool{false, true} {
			cfg := Config{Mode: mode, CacheBlocks: goldenCache, AsyncReadAlloc: async}
			cfg.Sched.TenantWeights = goldenWeights
			name := strings.ToLower(mode.String())
			if async {
				name += "_async"
			}
			arms = append(arms, arm{name, cfg})
		}
	}
	// The b = 0 ablation takes paths of the priority policy the default
	// arms never reach; hstorage-db_noshares is the hStorage arm without
	// scheduler weights, whose cache counters the weighted arm must
	// repeat (TestTenantWeightsLeaveCacheAlone).
	arms = append(arms,
		arm{"hstorage-db_b0", Config{Mode: HStorage, CacheBlocks: goldenCache, Policy: noBuffer}},
		arm{"hstorage-db_noshares", Config{Mode: HStorage, CacheBlocks: goldenCache}},
	)
	for _, a := range arms {
		a := a
		t.Run(a.name, func(t *testing.T) {
			got := goldenRun(t, a.cfg, reqs)
			path := filepath.Join("testdata", "replay_"+a.name+".golden")
			want, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("%s did not exist: written from this run, rerun to compare", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
		})
	}
}

// TestTenantWeightsLeaveCacheAlone: tenant weights are a property of the
// I/O scheduler. They reorder grants inside a class band, but the cache
// does not read them, so the golden trace under HStorage leaves the same
// counters with and without them.
func TestTenantWeightsLeaveCacheAlone(t *testing.T) {
	reqs := goldenTrace()
	stats := func(weights map[dss.TenantID]float64) Snapshot {
		cfg := Config{Mode: HStorage, CacheBlocks: goldenCache}
		cfg.Sched.TenantWeights = weights
		return replay(t, cfg, reqs, func(int, time.Duration) {}).Stats()
	}
	weighted, plain := stats(goldenWeights), stats(nil)
	if !reflect.DeepEqual(weighted, plain) {
		t.Fatalf("tenant weights moved the cache:\n weighted %+v\n plain    %+v", weighted, plain)
	}
}

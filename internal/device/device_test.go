package device

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestSequentialDetection(t *testing.T) {
	d := New(Cheetah15K())
	// First access is positional (cursor unknown).
	d.Access(0, Read, 100, 4)
	// Contiguous continuation: no positioning penalty.
	before := d.Stats()
	done := d.Access(d.Stats().BusyTime, Read, 104, 4)
	after := d.Stats()
	if after.SeqAccesses != before.SeqAccesses+1 {
		t.Fatalf("contiguous access not detected as sequential")
	}
	bps := 150e6
	transfer := time.Duration(float64(4*BlockSize) / bps * float64(time.Second))
	svc := after.BusyTime - before.BusyTime
	if svc < transfer-time.Microsecond || svc > transfer+time.Microsecond {
		t.Fatalf("sequential service %v, want ~%v", svc, transfer)
	}
	_ = done
}

func TestRandomPaysSeek(t *testing.T) {
	d := New(Cheetah15K())
	d.Access(0, Read, 0, 1)
	before := d.Stats().BusyTime
	d.Access(0, Read, 1_000_000, 1)
	svc := d.Stats().BusyTime - before
	if svc < Cheetah15K().RandReadLat {
		t.Fatalf("far jump service %v < seek %v", svc, Cheetah15K().RandReadLat)
	}
}

func TestNearSeekCheaper(t *testing.T) {
	spec := Cheetah15K()
	d := New(spec)
	d.Access(0, Read, 0, 1)
	before := d.Stats().BusyTime
	d.Access(0, Read, 100, 1) // within NearDistance
	nearSvc := d.Stats().BusyTime - before

	before = d.Stats().BusyTime
	d.Access(0, Read, 1_000_000, 1) // far
	farSvc := d.Stats().BusyTime - before
	if nearSvc >= farSvc {
		t.Fatalf("near seek %v not cheaper than far seek %v", nearSvc, farSvc)
	}
}

func TestSSDRandomFasterThanHDD(t *testing.T) {
	ssd := New(Intel320())
	hdd := New(Cheetah15K())
	// Alternate far-apart single-block reads.
	var ssdDone, hddDone time.Duration
	for i := 0; i < 100; i++ {
		lba := int64(i * 100000)
		ssdDone = ssd.Access(0, Read, lba, 1)
		hddDone = hdd.Access(0, Read, lba, 1)
	}
	if !(ssdDone*10 < hddDone) {
		t.Fatalf("SSD random (%v) should be >10x faster than HDD (%v)", ssdDone, hddDone)
	}
}

func TestHDDSequentialComparableToSSD(t *testing.T) {
	// Rule 1's premise: HDD sequential bandwidth is comparable to SSD's
	// (within ~2x), unlike the 100x random gap.
	ssd := New(Intel320())
	hdd := New(Cheetah15K())
	var ssdDone, hddDone time.Duration
	for i := 0; i < 1000; i++ {
		ssdDone = ssd.Access(0, Read, int64(i)*8, 8)
		hddDone = hdd.Access(0, Read, int64(i)*8, 8)
	}
	if hddDone > 3*ssdDone {
		t.Fatalf("HDD sequential (%v) should be within ~2-3x of SSD (%v)", hddDone, ssdDone)
	}
}

func TestTable2Specs(t *testing.T) {
	// The Intel 320 numbers of Table 2.
	s := Intel320()
	if s.SeqReadBps != 270e6 || s.SeqWriteBps != 205e6 {
		t.Fatalf("sequential rates %v/%v", s.SeqReadBps, s.SeqWriteBps)
	}
	// 39.5K read IOPS -> ~25.3us; 23K write IOPS -> ~43.5us.
	if s.RandReadLat < 25*time.Microsecond || s.RandReadLat > 26*time.Microsecond {
		t.Fatalf("rand read lat %v", s.RandReadLat)
	}
	if s.RandWriteLat < 43*time.Microsecond || s.RandWriteLat > 44*time.Microsecond {
		t.Fatalf("rand write lat %v", s.RandWriteLat)
	}
}

func TestCounters(t *testing.T) {
	d := New(Intel320())
	d.Access(0, Read, 0, 4)
	d.Access(0, Write, 100, 2)
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 || s.BlocksRead != 4 || s.BlocksWrite != 2 {
		t.Fatalf("counters %+v", s)
	}
	d.Reset()
	if s := d.Stats(); s.Reads != 0 || s.Writes != 0 || s.BusyTime != 0 || s.PerClass != nil {
		t.Fatalf("reset left %+v", s)
	}
}

func TestZeroBlockAccessFree(t *testing.T) {
	d := New(Cheetah15K())
	d.Access(0, Read, 0, 64)
	before := d.Stats()
	done := d.Access(time.Second, Read, 0, 0)
	if !reflect.DeepEqual(d.Stats(), before) {
		t.Fatalf("zero-length access changed counters")
	}
	if done != time.Second {
		t.Fatalf("zero-length access took time: %v", done)
	}
}

// Property: completion time is monotonically non-decreasing across
// submissions (device serializes).
func TestCompletionMonotonic(t *testing.T) {
	d := New(Intel320())
	f := func(lbas []int64, sizes []uint8) bool {
		var last time.Duration
		n := len(lbas)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			blocks := int(sizes[i]%32) + 1
			lba := lbas[i]
			if lba < 0 {
				lba = -lba
			}
			done := d.Access(0, Read, lba, blocks)
			if done < last {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSingleChannelBusyWithinHorizon: a single-channel device serves one
// request at a time, so its BusyTime never exceeds its busy horizon, and
// its utilization (BusyTime over elapsed time) never exceeds 1. The
// stream saturates the disk (arrivals every 100 µs, services of ms) and
// mixes reads and writes, sequential runs, near and far seeks.
func TestSingleChannelBusyWithinHorizon(t *testing.T) {
	d := New(Cheetah15K())
	rng := rand.New(rand.NewSource(8))
	lba := int64(0)
	for i := 0; i < 5000; i++ {
		op := Read
		if rng.Intn(3) == 0 {
			op = Write
		}
		switch rng.Intn(3) {
		case 0: // continue the run
		case 1:
			lba += rng.Int63n(2000)
		default:
			lba = rng.Int63n(1 << 24)
		}
		blocks := 1 + rng.Intn(32)
		at := time.Duration(i) * 100 * time.Microsecond
		if end := d.Access(at, op, lba, blocks); end < at {
			t.Fatalf("request %d ends at %v before it arrives at %v", i, end, at)
		}
		lba += int64(blocks)
		if busy, horizon := d.Stats().BusyTime, d.BusyUntil(); busy > horizon {
			t.Fatalf("after %d requests: busy %v beyond the horizon %v", i+1, busy, horizon)
		}
	}
	if busy, horizon := d.Stats().BusyTime, d.BusyUntil(); busy < horizon*9/10 {
		t.Fatalf("stream did not saturate the disk: busy %v of %v", busy, horizon)
	}
}

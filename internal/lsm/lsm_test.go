package lsm

import (
	"errors"
	"fmt"
	"testing"

	"hstoragedb/internal/pagestore"
)

// pat builds a recognizable page payload.
func pat(id pagestore.ObjectID, page int64, rev int) []byte {
	return []byte(fmt.Sprintf("obj=%d page=%d rev=%d", id, page, rev))
}

func mustWrite(t *testing.T, s *Store, id pagestore.ObjectID, page int64, data []byte) {
	t.Helper()
	if _, err := s.Write(id, page, data); err != nil {
		t.Fatalf("Write(%d,%d): %v", id, page, err)
	}
}

func checkPage(t *testing.T, s *Store, id pagestore.ObjectID, page int64, want []byte) {
	t.Helper()
	got, _, err := s.Read(id, page)
	if err != nil {
		t.Fatalf("Read(%d,%d): %v", id, page, err)
	}
	if string(got[:len(want)]) != string(want) {
		t.Fatalf("Read(%d,%d) = %q, want %q", id, page, got[:len(want)], want)
	}
}

func smallConfig() Config {
	return Config{MemtablePages: 8, L0Tables: 2}
}

func TestMemtableRoundTrip(t *testing.T) {
	s := New(smallConfig())
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, 1, 0, pat(1, 0, 1))
	mustWrite(t, s, 1, 3, pat(1, 3, 1))
	checkPage(t, s, 1, 0, pat(1, 0, 1))
	checkPage(t, s, 1, 3, pat(1, 3, 1))
	if got := s.Pages(1); got != 4 {
		t.Fatalf("Pages = %d, want 4", got)
	}
	// Never-written page reads as zeroes without device I/O.
	data, plan, err := s.Read(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range data {
		if b != 0 {
			t.Fatal("unwritten page not zero")
		}
	}
	if len(plan) != 0 {
		t.Fatalf("empty tree probe produced %d accesses", len(plan))
	}
}

func TestFlushAndProbePlan(t *testing.T) {
	s := New(smallConfig())
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 5; p++ {
		mustWrite(t, s, 1, p, pat(1, p, 1))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.MemtableLen() != 0 {
		t.Fatal("memtable not empty after Sync")
	}
	jobs := s.DrainMaintenance()
	if len(jobs) != 1 || jobs[0].Kind != pagestore.MaintFlush {
		t.Fatalf("jobs = %+v, want one flush", jobs)
	}
	var writes int
	for _, a := range jobs[0].Accesses {
		if !a.Write {
			t.Fatalf("flush job contains a read: %+v", a)
		}
		writes += a.Blocks
	}
	// 5 data + header + bloom + index + manifest slot.
	if writes < 9 {
		t.Fatalf("flush wrote %d blocks, want >= 9", writes)
	}
	// A tree read now costs bloom + index + data accesses.
	data, plan, err := s.Read(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:len(pat(1, 2, 1))]) != string(pat(1, 2, 1)) {
		t.Fatal("flushed page corrupt")
	}
	if len(plan) != 3 {
		t.Fatalf("probe plan has %d accesses, want 3 (bloom, index, data)", len(plan))
	}
	if !plan[0].Meta || !plan[1].Meta || plan[2].Meta {
		t.Fatalf("probe plan meta flags wrong: %+v", plan)
	}
}

func TestCompactionMergesAndCollects(t *testing.T) {
	s := New(smallConfig())
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(2); err != nil {
		t.Fatal(err)
	}
	// Two flush rounds trigger one compaction (L0Tables=2).
	for p := int64(0); p < 8; p++ {
		mustWrite(t, s, 1, p, pat(1, p, 1))
	}
	for p := int64(0); p < 8; p++ {
		mustWrite(t, s, 2, p, pat(2, p, 1))
	}
	lv := s.TablesPerLevel()
	if lv[0] != 0 || lv[1] != 1 {
		t.Fatalf("levels = %v, want [0 1]", lv)
	}
	jobs := s.DrainMaintenance()
	var compactions int
	for _, j := range jobs {
		if j.Kind == pagestore.MaintCompaction {
			compactions++
			if len(j.Trims) == 0 {
				t.Fatal("compaction reported no trims")
			}
		}
	}
	if compactions != 1 {
		t.Fatalf("compactions = %d, want 1", compactions)
	}
	for p := int64(0); p < 8; p++ {
		checkPage(t, s, 1, p, pat(1, p, 1))
		checkPage(t, s, 2, p, pat(2, p, 1))
	}

	// Deleting object 2 makes its versions garbage; the next compaction
	// must not carry them into the output.
	if _, err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	for p := int64(0); p < 16; p++ {
		mustWrite(t, s, 1, p, pat(1, p, 2))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	for s.TablesPerLevel()[0] > 0 {
		// Force the tree into a single compacted run.
		for p := int64(0); p < 16; p++ {
			mustWrite(t, s, 1, p, pat(1, p, 3))
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	for _, tb := range s.levels[1] {
		for _, k := range tb.keys {
			if k.obj == 2 {
				s.mu.Unlock()
				t.Fatal("deleted object's pages survived compaction")
			}
		}
	}
	s.mu.Unlock()
}

func TestOverwriteNewestWins(t *testing.T) {
	s := New(smallConfig())
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, 1, 0, pat(1, 0, 1))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, 1, 0, pat(1, 0, 2))
	checkPage(t, s, 1, 0, pat(1, 0, 2)) // memtable over L0
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	checkPage(t, s, 1, 0, pat(1, 0, 2)) // newer L0 over older
	mustWrite(t, s, 1, 0, pat(1, 0, 3))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	checkPage(t, s, 1, 0, pat(1, 0, 3)) // post-compaction single copy
}

func TestTruncateInvalidatesVersions(t *testing.T) {
	s := New(smallConfig())
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, 1, 0, pat(1, 0, 1))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Pages(1); got != 0 {
		t.Fatalf("Pages after truncate = %d", got)
	}
	data, _, err := s.Read(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range data {
		if b != 0 {
			t.Fatal("truncated page still readable")
		}
	}
}

func TestUnknownObject(t *testing.T) {
	s := New(smallConfig())
	if _, _, err := s.Read(9, 0); !errors.Is(err, pagestore.ErrUnknownObject) {
		t.Fatalf("Read err = %v", err)
	}
	if _, err := s.Write(9, 0, nil); !errors.Is(err, pagestore.ErrUnknownObject) {
		t.Fatalf("Write err = %v", err)
	}
	if _, err := s.Delete(9); !errors.Is(err, pagestore.ErrUnknownObject) {
		t.Fatalf("Delete err = %v", err)
	}
}

func TestCrashLosesMemtableKeepsSynced(t *testing.T) {
	s := New(smallConfig())
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, 1, 0, pat(1, 0, 1))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, 1, 1, pat(1, 1, 1)) // absorbed, never synced
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	checkPage(t, s, 1, 0, pat(1, 0, 1))
	data, _, err := s.Read(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range data {
		if b != 0 {
			t.Fatal("unsynced write survived crash")
		}
	}
	// Registry is instantly durable: the object still exists even
	// though it was created after the last Sync.
	if err := s.Create(1); err == nil {
		t.Fatal("Create(1) succeeded after crash; registry lost")
	}
}

// crashSteps is the sweep's flush-then-compaction sequence under
// smallConfig: each step rewrites these pages of object 1 and Syncs. The
// second and fourth flushes fill L0 and compact it into L1.
var crashSteps = [][]int64{{0, 1, 2}, {2, 3, 4, 5}, {5, 6}, {0, 6, 7}}

// runCrashSteps writes and Syncs the steps in order. It returns the
// index of the step whose Sync failed (len(steps) when none did) and
// the manifest version after each completed step.
func runCrashSteps(t *testing.T, s *Store) (int, []uint64) {
	t.Helper()
	var versions []uint64
	for i, pages := range crashSteps {
		for _, p := range pages {
			mustWrite(t, s, 1, p, pat(1, p, i+1))
		}
		if err := s.Sync(); err != nil {
			if !errors.Is(err, pagestore.ErrKilled) {
				t.Fatalf("step %d: Sync = %v, want ErrKilled", i, err)
			}
			return i, versions
		}
		versions = append(versions, s.Version())
	}
	return len(crashSteps), versions
}

// TestKillPoints kills the flush-then-compaction sequence at each of its
// durable block writes in turn: subtest k runs it under KillAfter(k),
// for every k below the clean run's write count. After recovery, the
// manifest version is one the sequence durably wrote, every page of a
// completed Sync reads back, the interrupted Sync's pages are visible
// all together exactly when its flush's manifest landed, no block
// outside the live tables and the two manifest slots survives, and the
// store round-trips a write again.
func TestKillPoints(t *testing.T) {
	clean := New(smallConfig())
	if err := clean.Create(1); err != nil {
		t.Fatal(err)
	}
	_, full := runCrashSteps(t, clean)
	n := clean.Writes()
	var lastVersion uint64
	for k := int64(0); k < n; k++ {
		t.Run(fmt.Sprint(k), func(t *testing.T) { killFlushCompactionAt(t, k, full, &lastVersion) })
	}
	t.Logf("swept %d kill points", n)
}

// killFlushCompactionAt runs one point of TestKillPoints. full holds the
// clean run's version after each step; lastVersion the version recovered
// at the previous k run.
func killFlushCompactionAt(t *testing.T, k int64, full []uint64, lastVersion *uint64) {
	s := New(smallConfig())
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	s.KillAfter(k)
	step, versions := runCrashSteps(t, s)
	if step == len(crashSteps) || !s.Dead() {
		t.Fatalf("the kill did not fire (step %d, dead=%v)", step, s.Dead())
	}
	if _, _, err := s.Read(1, 0); !errors.Is(err, pagestore.ErrKilled) {
		t.Fatalf("Read on a dead store = %v, want ErrKilled", err)
	}
	if _, err := s.Write(pagestore.LogBase+1, 0, nil); !errors.Is(err, pagestore.ErrKilled) {
		t.Fatalf("direct Write on a dead store = %v, want ErrKilled", err)
	}
	if err := s.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}

	// The version is the last manifest the sequence wrote durably: at
	// least the last completed Sync's, short of the interrupted one's,
	// and never older than at a smaller k.
	var before uint64
	if step > 0 {
		before = versions[step-1]
	}
	v := s.Version()
	if v < before || v >= full[step] || v < *lastVersion {
		t.Fatalf("recovered version %d, want in [%d, %d) and >= %d", v, before, full[step], *lastVersion)
	}
	*lastVersion = v

	// Completed Syncs read back; the interrupted one is all or none.
	want := map[int64][]byte{}
	for i := 0; i < step; i++ {
		for _, p := range crashSteps[i] {
			want[p] = pat(1, p, i+1)
		}
	}
	landed := v > before
	if landed {
		for _, p := range crashSteps[step] {
			want[p] = pat(1, p, step+1)
		}
	}
	for p := int64(0); p < 8; p++ {
		got, _, err := s.Read(1, p)
		if err != nil {
			t.Fatalf("Read(%d): %v", p, err)
		}
		w, ok := want[p]
		if !ok {
			w = make([]byte, len(pat(1, p, 0)))
		}
		if string(got[:len(w)]) != string(w) {
			t.Fatalf("step %d (flush landed %v): page %d = %q, want %q", step, landed, p, got[:len(w)], w)
		}
	}

	// Only the live tables and the manifest slots hold blocks.
	s.mu.Lock()
	for lba := range s.disk {
		live := lba < dataBase
		for _, lvl := range s.levels {
			for _, tb := range lvl {
				live = live || lba >= tb.base && lba < tb.base+tb.blocks
			}
		}
		if !live {
			s.mu.Unlock()
			t.Fatalf("block %d survived recovery outside every live table", lba)
		}
	}
	s.mu.Unlock()

	mustWrite(t, s, 1, 9, pat(1, 9, 9))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after recovery: %v", err)
	}
	checkPage(t, s, 1, 9, pat(1, 9, 9))
}

// TestManifestChecksumFallback corrupts the newest manifest slot: Crash()
// must load the older slot's version, with its tables, and discard the
// newer flush's table as orphans.
func TestManifestChecksumFallback(t *testing.T) {
	s := New(Config{MemtablePages: 8, L0Tables: 4})
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, 1, 0, pat(1, 0, 1))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, s, 1, 1, pat(1, 1, 2))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	newest := s.Version()
	s.mu.Lock()
	slot := s.disk[int64(newest%2)*manifestSlotBlocks]
	bad := append([]byte(nil), slot...)
	bad[8] ^= 0xff // inside the payload the checksum covers
	s.disk[int64(newest%2)*manifestSlotBlocks] = bad
	s.mu.Unlock()

	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := s.Version(); got != newest-1 {
		t.Fatalf("version after a corrupt newest slot = %d, want %d", got, newest-1)
	}
	if s.OrphansDiscarded() == 0 {
		t.Fatal("the newer flush's table survived as a live table")
	}
	checkPage(t, s, 1, 0, pat(1, 0, 1))
	data, _, err := s.Read(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range data {
		if b != 0 {
			t.Fatal("page of the corrupt manifest's flush visible after recovery")
		}
	}
}

func TestManifestAlternatesSlots(t *testing.T) {
	s := New(smallConfig())
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		mustWrite(t, s, 1, int64(round), pat(1, int64(round), round))
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.Crash(); err != nil {
			t.Fatal(err)
		}
		for p := int64(0); p <= int64(round); p++ {
			checkPage(t, s, 1, p, pat(1, p, int(p)))
		}
	}
}

// TestDirectRegionPassThrough: the first object of each reserved range
// bypasses the tree.
func TestDirectRegionPassThrough(t *testing.T) {
	for _, tc := range []struct {
		name string
		obj  pagestore.ObjectID
	}{
		{"wal segment", pagestore.LogBase + 1},
		{"coordinator log", pagestore.CoordLogBase},
		{"temp file", pagestore.TempBase},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{})
			if err := s.Create(tc.obj); err != nil {
				t.Fatal(err)
			}
			plan, err := s.Write(tc.obj, 0, []byte("log"))
			if err != nil {
				t.Fatal(err)
			}
			// Direct writes hit the device immediately — the WAL cannot
			// sit in the memtable it is responsible for making durable.
			if len(plan) != 1 || !plan[0].Write {
				t.Fatalf("direct write plan = %+v", plan)
			}
			if plan[0].LBA < directLBAOffset {
				t.Fatalf("direct LBA %d not offset into the direct region", plan[0].LBA)
			}
			data, plan, err := s.Read(tc.obj, 0)
			if err != nil {
				t.Fatal(err)
			}
			if string(data[:3]) != "log" {
				t.Fatal("direct read corrupt")
			}
			if len(plan) != 1 || plan[0].LBA < directLBAOffset {
				t.Fatalf("direct read plan = %+v", plan)
			}
			// Direct objects survive Crash untouched (in-place durability).
			if err := s.Crash(); err != nil {
				t.Fatal(err)
			}
			data, _, err = s.Read(tc.obj, 0)
			if err != nil {
				t.Fatal(err)
			}
			if string(data[:3]) != "log" {
				t.Fatal("direct page lost in crash")
			}
			exts, err := s.Delete(tc.obj)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range exts {
				if e.Start < directLBAOffset {
					t.Fatalf("direct delete extent %+v not offset", e)
				}
			}
		})
	}
}

func TestIteratorOrderAndRacingDelete(t *testing.T) {
	s := New(smallConfig())
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	// Mix of flushed and memtable-resident pages.
	for p := int64(0); p < 10; p++ {
		mustWrite(t, s, 1, p, pat(1, p, 1))
	}
	it, err := s.Iter(1)
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(0); want < 10; want++ {
		p, data, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
		if p != want {
			t.Fatalf("iterator page %d, want %d", p, want)
		}
		if string(data[:len(pat(1, p, 1))]) != string(pat(1, p, 1)) {
			t.Fatalf("iterator page %d corrupt", p)
		}
	}
	if _, _, ok, _ := it.Next(); ok {
		t.Fatal("iterator did not stop")
	}

	it2, err := s.Iter(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := it2.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := it2.Next(); !errors.Is(err, pagestore.ErrUnknownObject) {
		t.Fatalf("Next after racing delete = %v, want ErrUnknownObject", err)
	}
}

func TestAllocatorReusesCompactedSpace(t *testing.T) {
	s := New(smallConfig())
	if err := s.Create(1); err != nil {
		t.Fatal(err)
	}
	var before int64
	for round := 0; round < 20; round++ {
		for p := int64(0); p < 8; p++ {
			mustWrite(t, s, 1, p, pat(1, p, round))
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if round == 5 {
			s.mu.Lock()
			before = s.nextLBA
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	after := s.nextLBA
	s.mu.Unlock()
	// Steady-state overwrites of the same 8 pages must recycle freed
	// table space rather than growing the device without bound.
	if after > before*4 {
		t.Fatalf("address space grew %d -> %d despite steady-state workload", before, after)
	}
	s.DrainMaintenance()
}

package txn

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/lsm"
	"hstoragedb/internal/pagestore"
)

// TestCrashRecoveryLSMBackend runs the end-to-end crash acceptance test
// over the LSM backend: the crash drops the memtable along with the
// buffer pool, and WAL replay rebuilds the committed state in a fresh
// memtable. Committed-but-unflushed transactions must come back;
// the loser must not.
func TestCrashRecoveryLSMBackend(t *testing.T) {
	ls := lsm.New(lsm.Config{MemtablePages: 16, L0Tables: 2})
	f := newFixtureOn(t, 16, engine.NewDatabaseOn(ls))
	if err := f.tm.Checkpoint(f.sess); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		if err := f.insert(i, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	// Same harness as the heap test: the 5th commit from now dies after
	// its page records are durable but before its commit record.
	f.tm.CrashAtCommit(5)
	var crashedAt int64
	for i := int64(21); i <= 30; i++ {
		err := f.insert(i, fmt.Sprintf("v%d", i))
		if errors.Is(err, ErrCrashed) {
			crashedAt = i
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if crashedAt != 25 {
		t.Fatalf("crash fired at key %d, want 25", crashedAt)
	}
	f.tm.Crash()
	if n := ls.MemtableLen(); n != 0 {
		t.Fatalf("crash left %d pages in the memtable", n)
	}

	stats := f.attach(t, 16, false)
	if stats.CommittedTxns == 0 || stats.LoserTxns == 0 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	// Replay lands in the backend: fresh memtable and/or flushed
	// tables, depending on how much redo crossed the flush threshold.
	if ls.MemtableLen() == 0 && ls.TablesPerLevel()[0] == 0 && ls.TablesPerLevel()[1] == 0 {
		t.Fatal("recovery replayed nothing into the backend")
	}

	for i := int64(1); i <= 24; i++ {
		if got, want := f.lookup(t, i), fmt.Sprintf("v%d", i); got != want {
			t.Fatalf("committed key %d: got %q want %q", i, got, want)
		}
	}
	if got := f.lookup(t, 25); got != "" {
		t.Fatalf("uncommitted key 25 visible after recovery: %q", got)
	}
	if n := f.scanCount(t); n != 24 {
		t.Fatalf("heap scan found %d tuples, want 24", n)
	}
	if err := f.insert(100, "after"); err != nil {
		t.Fatal(err)
	}
	if got := f.lookup(t, 100); got != "after" {
		t.Fatalf("post-recovery insert: %q", got)
	}
}

// crashSweepRows rows of crashSweepVal bytes roll the fixture's 8-page
// log segments at least once, so a checkpoint has a segment to truncate.
const (
	crashSweepRows = 24
	crashSweepVal  = 3000
)

func sweepVal(id int64) string {
	return fmt.Sprintf("%d:%s", id, strings.Repeat("x", crashSweepVal))
}

// killable is a backend with a crash cut: both pagestore.Store and
// lsm.Store embed a pagestore.Cut.
type killable interface {
	KillAfter(n int64)
	Writes() int64
	Dead() bool
}

// sweepBackends are the backends the crash sweeps kill, in one table.
// The LSM's subtests keep their bare kill-point names; the heap store's
// sit under "heap/".
var sweepBackends = []struct {
	name, prefix string
	open         func() pagestore.Backend
}{
	{"lsm", "", func() pagestore.Backend { return lsm.New(lsm.Config{MemtablePages: 1 << 20, L0Tables: 2}) }},
	{"heap", "heap/", func() pagestore.Backend { return pagestore.NewStore() }},
}

// TestCheckpointKilledMidFlush kills a database at each durable block
// write of an insert run and the checkpoint after it in turn (subtest k
// arms KillAfter(k), for every k below the clean run's write count),
// once over each backend: WAL page forces, the segment rollover's meta
// page, the checkpoint's write-back (the LSM's SSTable and manifest, the
// heap store's pages), its checkpoint record and the meta page that
// truncates the log. After every kill the database recovers. Every
// committed key must read back and no other, a checkpoint must succeed,
// and the log must then roll a segment again.
func TestCheckpointKilledMidFlush(t *testing.T) {
	for _, b := range sweepBackends {
		n := killCheckpointAt(t, b.open, -1)
		for k := int64(0); k < n; k++ {
			t.Run(b.prefix+fmt.Sprint(k), func(t *testing.T) { killCheckpointAt(t, b.open, k) })
		}
		t.Logf("%s: swept %d kill points", b.name, n)
	}
}

// killCheckpointAt runs the insert run and checkpoint under KillAfter(k)
// on a fresh backend from open and checks the recovery. A negative k is
// the clean run: it must succeed, and it returns the durable block
// writes the run made.
func killCheckpointAt(t *testing.T, open func() pagestore.Backend, k int64) int64 {
	store := open()
	cut := store.(killable)
	f := newFixtureOn(t, 64, engine.NewDatabaseOn(store))
	if err := f.tm.Checkpoint(f.sess); err != nil {
		t.Fatal(err)
	}
	base := cut.Writes()
	cut.KillAfter(k)
	committed := int64(0)
	var err error
	for committed < crashSweepRows {
		if err = f.insert(committed+1, sweepVal(committed+1)); err != nil {
			break
		}
		committed++
	}
	if err == nil {
		err = f.tm.Checkpoint(f.sess)
	}
	if k < 0 {
		if err != nil {
			t.Fatalf("clean run: %v", err)
		}
		return cut.Writes() - base
	}
	if !errors.Is(err, pagestore.ErrKilled) || !cut.Dead() {
		t.Fatalf("run returned %v (dead=%v), want ErrKilled", err, cut.Dead())
	}
	f.tm.Crash()

	f.attach(t, 64, false)
	for i := int64(1); i <= crashSweepRows; i++ {
		want := ""
		if i <= committed {
			want = sweepVal(i)
		}
		if got := f.lookup(t, i); got != want {
			t.Fatalf("after %d commits: key %d = %.12q, want %.12q", committed, i, got, want)
		}
	}
	if err := f.tm.Checkpoint(f.sess); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
	segs := f.tm.log.Stats().Segments
	for i := int64(1); f.tm.log.Stats().Segments == segs; i++ {
		if err := f.insert(1000+i, sweepVal(1000+i)); err != nil {
			t.Fatalf("insert after recovery: %v", err)
		}
	}
	return 0
}

package txn

import (
	"errors"
	"fmt"
	"testing"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/heap"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
)

// fixture is a one-table database ("kv": id int64, val string; index on
// id) with an attached instance, log and transaction manager.
type fixture struct {
	db   *engine.Database
	inst *engine.Instance
	tm   *Manager
	sess *engine.Session
	info *catalog.TableInfo
	file *heap.File
	ix   *btree.Tree
	cfg  wal.Config
}

func newFixture(t testing.TB, poolPages int) *fixture {
	t.Helper()
	return newFixtureOn(t, poolPages, engine.NewDatabase())
}

// newFixtureOn builds the fixture over a caller-supplied database, so
// the same transaction tests run against any storage backend. Its log
// has small segments, so rollovers are part of every test.
func newFixtureOn(t testing.TB, poolPages int, db *engine.Database) *fixture {
	t.Helper()
	return newFixtureWAL(t, poolPages, db, wal.Config{SegmentPages: 8})
}

// newFixtureWAL is newFixtureOn with the log's sizing given.
func newFixtureWAL(t testing.TB, poolPages int, db *engine.Database, cfg wal.Config) *fixture {
	t.Helper()
	schema := catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "val", Type: catalog.String},
	)
	info, err := db.CreateTable("kv", schema)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{db: db, info: info, cfg: cfg}
	f.attach(t, poolPages, true)
	return f
}

// attach builds a fresh instance (and, when create is set, a fresh WAL;
// otherwise it recovers the existing one).
func (f *fixture) attach(t testing.TB, poolPages int, create bool) *wal.RecoveryStats {
	t.Helper()
	inst, err := f.db.NewInstance(engine.InstanceConfig{
		Storage:         hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 512},
		BufferPoolPages: poolPages,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.inst = inst
	f.sess = inst.NewSession()
	f.file = heap.NewFile(f.info.ID, f.info.Schema, policy.Table)
	var stats *wal.RecoveryStats
	var log *wal.Manager
	if create {
		if _, err := inst.BuildIndex("idx_kv_id", "kv", "id"); err != nil {
			t.Fatal(err)
		}
		if log, err = wal.New(&f.sess.Clk, inst.Mgr, f.cfg); err != nil {
			t.Fatal(err)
		}
	} else {
		if log, stats, err = wal.Recover(&f.sess.Clk, inst.Mgr, f.cfg); err != nil {
			t.Fatal(err)
		}
	}
	f.ix = btree.Open(f.db.Cat.MustIndex("idx_kv_id").ID, inst.Pool)
	f.tm = NewManager(inst, log)
	return stats
}

// insert runs one transaction appending (id, val) and maintaining the
// index.
func (f *fixture) insert(id int64, val string) error {
	tx, err := f.tm.Begin(f.sess)
	if err != nil {
		return err
	}
	app := f.file.NewAppender(&f.sess.Clk, f.inst.Pool, f.db.Store.Pages(f.info.ID))
	rid, err := app.Append(catalog.Tuple{catalog.IntDatum(id), catalog.StringDatum(val)})
	if err == nil {
		err = app.Close()
	}
	if err != nil {
		_ = tx.Abort()
		return err
	}
	if err := f.ix.Insert(&f.sess.Clk, btree.Entry{Key: id, RID: rid}, 0); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

// lookup returns the val for id, or "" when the key is not visible.
func (f *fixture) lookup(t *testing.T, id int64) string {
	t.Helper()
	rids, err := f.ix.Lookup(&f.sess.Clk, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rid := range rids {
		row, err := f.file.Fetch(&f.sess.Clk, f.inst.Pool, rid, 0)
		if err != nil {
			t.Fatal(err)
		}
		if row != nil {
			return row[1].S
		}
	}
	return ""
}

// scanCount counts visible heap tuples.
func (f *fixture) scanCount(t *testing.T) int {
	t.Helper()
	sc := f.file.NewScanner(&f.sess.Clk, f.inst.Pool, f.db.Store.Pages(f.info.ID))
	n := 0
	for {
		_, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		n++
	}
}

func TestCommitAndAbortVisibility(t *testing.T) {
	f := newFixture(t, 64)
	for i := int64(1); i <= 3; i++ {
		if err := f.insert(i, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.lookup(t, 2); got != "v2" {
		t.Fatalf("lookup(2) = %q", got)
	}

	// Abort an insert: heap row and index entry both vanish.
	tx, err := f.tm.Begin(f.sess)
	if err != nil {
		t.Fatal(err)
	}
	app := f.file.NewAppender(&f.sess.Clk, f.inst.Pool, f.db.Store.Pages(f.info.ID))
	rid, err := app.Append(catalog.Tuple{catalog.IntDatum(99), catalog.StringDatum("ghost")})
	if err == nil {
		err = app.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := f.ix.Insert(&f.sess.Clk, btree.Entry{Key: 99, RID: rid}, 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := f.lookup(t, 99); got != "" {
		t.Fatalf("aborted key visible: %q", got)
	}
	if got := f.lookup(t, 3); got != "v3" {
		t.Fatalf("committed key damaged by abort: %q", got)
	}
	if f.tm.Aborts() != 1 || f.tm.Commits() != 3 {
		t.Fatalf("commits=%d aborts=%d", f.tm.Commits(), f.tm.Aborts())
	}
}

// TestNoStealUnderPressure runs a large transaction through a tiny buffer
// pool and aborts it: without pinning, evictions would have leaked
// uncommitted pages to the storage system and the abort could not retract
// them.
func TestNoStealUnderPressure(t *testing.T) {
	f := newFixture(t, 4)
	tx, err := f.tm.Begin(f.sess)
	if err != nil {
		t.Fatal(err)
	}
	app := f.file.NewAppender(&f.sess.Clk, f.inst.Pool, f.db.Store.Pages(f.info.ID))
	rids := make([]catalog.RID, 0, 200)
	bulk := catalog.StringDatum(string(make([]byte, 400)))
	for i := 0; i < 200; i++ {
		rid, err := app.Append(catalog.Tuple{catalog.IntDatum(int64(1000 + i)), bulk})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		if err := f.ix.Insert(&f.sess.Clk, btree.Entry{Key: int64(1000 + i), RID: rid}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if f.inst.Pool.Len() <= 4 {
		t.Fatalf("expected the pinned working set to exceed the pool cap, len=%d", f.inst.Pool.Len())
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := f.scanCount(t); n != 0 {
		t.Fatalf("%d uncommitted tuples leaked to disk", n)
	}
	if got := f.lookup(t, 1050); got != "" {
		t.Fatalf("aborted index entry visible: %q", got)
	}
}

// TestCrashRecovery is the end-to-end acceptance check: a crash is
// injected mid-stream, a fresh instance recovers from the WAL, and all
// committed transactions' effects are present while the loser's are
// absent — verified through both index lookups and heap scans.
func TestCrashRecovery(t *testing.T) {
	f := newFixture(t, 16)
	if err := f.tm.Checkpoint(f.sess); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		if err := f.insert(i, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	// Arm the harness: the 5th commit from now (key 25) dies after its
	// page records are durable but before its commit record.
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
	if _, err := f.tm.Begin(f.sess); !errors.Is(err, ErrCrashed) {
		t.Fatalf("dead manager accepted a transaction: %v", err)
	}

	// Restart: fresh instance over the surviving page store, recover.
	stats := f.attach(t, 16, false)
	if stats.CommittedTxns == 0 || stats.LoserTxns == 0 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	if stats.Elapsed <= 0 {
		t.Fatal("recovery consumed no simulated time")
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

	// Life goes on: the recovered log accepts new transactions.
	if err := f.insert(100, "after"); err != nil {
		t.Fatal(err)
	}
	if got := f.lookup(t, 100); got != "after" {
		t.Fatalf("post-recovery insert: %q", got)
	}
}

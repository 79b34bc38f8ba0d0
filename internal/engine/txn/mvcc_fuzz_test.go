package txn

// Randomized interleaving fuzz: N writer goroutines run balance
// transfers (total is invariant) while M snapshot scanners concurrently
// sum the table. Every snapshot must observe the full account set and
// the exact invariant total — any torn read, dirty read, or
// half-applied transfer breaks the sum. Schedules are seeded and
// deterministic on the simulated clock; the seed count scales with the
// MVCC_FUZZ_SEEDS environment variable (the CI race job runs 1000+).

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/heap"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
)

const (
	fuzzAccounts    = 8
	fuzzInitBalance = int64(1000)
)

// fuzzFixture is a one-table bank ("acct": id int64, bal int64) whose
// total balance is invariant under transfers.
type fuzzFixture struct {
	db   *engine.Database
	inst *engine.Instance
	tm   *Manager
	sess *engine.Session
	info *catalog.TableInfo
	file *heap.File
	ix   *btree.Tree
	rids map[int64]catalog.RID
}

func newFuzzFixture(t *testing.T, poolPages int) *fuzzFixture {
	t.Helper()
	db := engine.NewDatabase()
	schema := catalog.NewSchema(
		catalog.Column{Name: "id", Type: catalog.Int64},
		catalog.Column{Name: "bal", Type: catalog.Int64},
	)
	info, err := db.CreateTable("acct", schema)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := db.NewInstance(engine.InstanceConfig{
		Storage:         hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 512},
		BufferPoolPages: poolPages,
	})
	if err != nil {
		t.Fatal(err)
	}
	z := &fuzzFixture{db: db, inst: inst, sess: inst.NewSession(), info: info,
		file: heap.NewFile(info.ID, info.Schema, policy.Table),
		rids: make(map[int64]catalog.RID)}
	if _, err := inst.BuildIndex("idx_acct_id", "acct", "id"); err != nil {
		t.Fatal(err)
	}
	log, err := wal.New(&z.sess.Clk, inst.Mgr, wal.Config{SegmentPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	z.ix = btree.Open(db.Cat.MustIndex("idx_acct_id").ID, inst.Pool)
	z.tm = NewManager(inst, log)

	// Seed the accounts in one transaction, then checkpoint so the
	// watermark covers them: every snapshot sees the full account set.
	tx, err := z.tm.Begin(z.sess)
	if err != nil {
		t.Fatal(err)
	}
	app := z.file.NewAppender(&z.sess.Clk, inst.Pool, 0)
	for id := int64(0); id < fuzzAccounts; id++ {
		rid, err := app.Append(catalog.Tuple{catalog.IntDatum(id), catalog.IntDatum(fuzzInitBalance)})
		if err != nil {
			t.Fatal(err)
		}
		z.rids[id] = rid
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < fuzzAccounts; id++ {
		if err := z.ix.Insert(&z.sess.Clk, btree.Entry{Key: id, RID: z.rids[id]}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := z.tm.Checkpoint(z.sess); err != nil {
		t.Fatal(err)
	}
	return z
}

// transfer moves amt from account a to account b in one transaction.
func (z *fuzzFixture) transfer(sess *engine.Session, a, b, amt int64) error {
	tx, err := z.tm.Begin(sess)
	if err != nil {
		return err
	}
	step := func(id, delta int64) error {
		row, err := z.file.Fetch(&sess.Clk, z.inst.Pool, z.rids[id], 0)
		if err != nil {
			return err
		}
		if row == nil {
			return fmt.Errorf("account %d missing", id)
		}
		return z.file.Update(&sess.Clk, z.inst.Pool, z.rids[id],
			catalog.Tuple{catalog.IntDatum(id), catalog.IntDatum(row[1].I + delta)}, 0)
	}
	if err := step(a, -amt); err != nil {
		_ = tx.Abort()
		return err
	}
	if err := step(b, amt); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

// snapshotSum scans the table inside one snapshot, returning the row
// count and balance total it observed.
func (z *fuzzFixture) snapshotSum(sess *engine.Session) (rows int, sum int64, err error) {
	snap := z.tm.BeginSnapshot(sess)
	sc := z.file.NewScanner(&sess.Clk, z.inst.Pool, z.db.Store.Pages(z.info.ID))
	for {
		row, _, ok, err := sc.Next()
		if err != nil {
			_ = snap.Abort()
			return 0, 0, err
		}
		if !ok {
			break
		}
		rows++
		sum += row[1].I
	}
	return rows, sum, snap.Commit()
}

// fuzzSeedCount returns the number of seeds to run: MVCC_FUZZ_SEEDS when
// set, else a small default (smaller still under -short).
func fuzzSeedCount(t *testing.T) int {
	if s := os.Getenv("MVCC_FUZZ_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("MVCC_FUZZ_SEEDS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 20
	}
	return 60
}

// TestMVCCInterleavingFuzz is the randomized schedule sweep: per seed,
// 3 writers × several transfers race 2 snapshot scanners, and every
// snapshot sum must equal the invariant total. Between seeds the
// version store must drain to zero.
func TestMVCCInterleavingFuzz(t *testing.T) {
	const (
		writers      = 3
		scanners     = 2
		txnsPer      = 4
		scansPer     = 3
		wantTotal    = fuzzAccounts * fuzzInitBalance
		deadlockCap  = 200
		versionDrain = 0
	)
	z := newFuzzFixture(t, 64)
	seeds := fuzzSeedCount(t)

	for seed := 0; seed < seeds; seed++ {
		var wg sync.WaitGroup
		errCh := make(chan error, writers+scanners)

		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(seed)*7919 + int64(w)))
				sess := z.inst.NewSession()
				for i := 0; i < txnsPer; i++ {
					a := rng.Int63n(fuzzAccounts)
					b := rng.Int63n(fuzzAccounts - 1)
					if b >= a {
						b++
					}
					amt := 1 + rng.Int63n(10)
					var err error
					for try := 0; try < deadlockCap; try++ {
						err = z.transfer(sess, a, b, amt)
						if !errors.Is(err, ErrDeadlock) {
							break
						}
					}
					if err != nil {
						errCh <- fmt.Errorf("seed %d writer %d: %w", seed, w, err)
						return
					}
				}
			}(w)
		}
		for s := 0; s < scanners; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				sess := z.inst.NewSession()
				for i := 0; i < scansPer; i++ {
					rows, sum, err := z.snapshotSum(sess)
					if err != nil {
						errCh <- fmt.Errorf("seed %d scanner %d: %w", seed, s, err)
						return
					}
					if rows != fuzzAccounts || sum != wantTotal {
						errCh <- fmt.Errorf("seed %d scanner %d: snapshot saw %d rows sum %d, want %d rows sum %d",
							seed, s, rows, sum, fuzzAccounts, wantTotal)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	}

	// Final state: the invariant holds in a fresh snapshot, and after a
	// checkpoint (readers drained) the version store is empty.
	rows, sum, err := z.snapshotSum(z.inst.NewSession())
	if err != nil {
		t.Fatal(err)
	}
	if rows != fuzzAccounts || sum != wantTotal {
		t.Fatalf("final snapshot: %d rows sum %d", rows, sum)
	}
	if err := z.tm.Checkpoint(z.sess); err != nil {
		t.Fatal(err)
	}
	if vs := z.inst.Pool.VersionStats(); vs.Versions != versionDrain || vs.Snapshots != 0 {
		t.Fatalf("version store did not drain: %+v", vs)
	}
}

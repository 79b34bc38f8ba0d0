package txn

import (
	"fmt"
	"hash/crc32"
	"testing"

	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/pagestore"
)

// The log records what a transaction changed on each page, against the
// page as the transaction first touched it, and recovery replays those
// changes onto whatever committed version of the page the store holds.
// The tests below put different committed versions in the store before a
// crash and check that recovery lands on the final one.

// insertTail runs one transaction that appends a row per key to the
// heap's last page and indexes it. Every key rewrites the same heap page
// and index leaf, so the transaction's final images differ from the
// images it first touched by several separate changes.
func (f *fixture) insertTail(val string, keys ...int64) (*Txn, error) {
	tx, err := f.tm.Begin(f.sess)
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		app, err := f.file.NewTailAppender(&f.sess.Clk, f.inst.Pool, f.db.Store.Pages(f.info.ID))
		if err != nil {
			return nil, err
		}
		rid, err := app.Append(catalog.Tuple{catalog.IntDatum(k), catalog.StringDatum(val)})
		if err == nil {
			err = app.Close()
		}
		if err != nil {
			return nil, err
		}
		if err := f.ix.Insert(&f.sess.Clk, btree.Entry{Key: k, RID: rid}, 0); err != nil {
			return nil, err
		}
	}
	return tx, nil
}

// TestCrashAfterWriteBackRedoesDeltas commits four rounds of three rows
// each onto one heap page and one index leaf, lets the pool write the
// pages back after round w (w = 0: only the checkpoint's versions are
// in the store), and crashes. Whichever committed version the store
// holds, recovery rebuilds the final pages: every row is found through
// the index and by a heap scan.
func TestCrashAfterWriteBackRedoesDeltas(t *testing.T) {
	const rounds = 4
	for w := 0; w <= rounds; w++ {
		t.Run(fmt.Sprintf("written back after round %d", w), func(t *testing.T) {
			f := newFixture(t, 64)
			if err := f.tm.Checkpoint(f.sess); err != nil {
				t.Fatal(err)
			}
			for r := 1; r <= rounds; r++ {
				base := int64(10 * r)
				tx, err := f.insertTail(fmt.Sprintf("round %d", r), base+1, base+2, base+3)
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if r == w {
					if err := f.inst.Pool.FlushAll(&f.sess.Clk); err != nil {
						t.Fatal(err)
					}
				}
			}
			f.tm.Crash()

			stats := f.attach(t, 64, false)
			if stats.CommittedTxns != rounds {
				t.Fatalf("recovery stats: %+v", stats)
			}
			for r := 1; r <= rounds; r++ {
				for k := int64(10*r + 1); k <= int64(10*r+3); k++ {
					if got, want := f.lookup(t, k), fmt.Sprintf("round %d", r); got != want {
						t.Fatalf("key %d: got %q, want %q", k, got, want)
					}
				}
			}
			if n := f.scanCount(t); n != 3*rounds {
				t.Fatalf("heap scan found %d rows, want %d", n, 3*rounds)
			}
		})
	}
}

// TestCrashInDoubtCommitRedoesDeltas prepares a transaction whose rows
// share the heap page and index leaf of a committed one, crashes while it
// is in doubt, and resolves it to commit: its changes, logged against the
// committed pages it first touched, are replayed onto the pages recovery
// rebuilt, with the committed store version on disk or not.
func TestCrashInDoubtCommitRedoesDeltas(t *testing.T) {
	for _, writeBack := range []bool{false, true} {
		t.Run(fmt.Sprintf("written back %v", writeBack), func(t *testing.T) {
			f := newFixture(t, 64)
			if err := f.tm.Checkpoint(f.sess); err != nil {
				t.Fatal(err)
			}
			tx, err := f.insertTail("committed", 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if writeBack {
				if err := f.inst.Pool.FlushAll(&f.sess.Clk); err != nil {
					t.Fatal(err)
				}
			}
			tx, err = f.insertTail("prepared", 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Prepare(77); err != nil {
				t.Fatal(err)
			}
			f.tm.Crash()

			stats := f.attach(t, 64, false)
			if stats.CommittedTxns != 1 || stats.InDoubtTxns != 1 {
				t.Fatalf("recovery stats: %+v", stats)
			}
			doubt := f.tm.WAL().InDoubt()
			if len(doubt) != 1 || doubt[0].GTID != 77 {
				t.Fatalf("in doubt: %+v", doubt)
			}
			if err := f.tm.WAL().ResolveInDoubt(&f.sess.Clk, doubt[0].Txn, true); err != nil {
				t.Fatal(err)
			}
			for k, want := range map[int64]string{1: "committed", 2: "committed", 3: "prepared", 4: "prepared"} {
				if got := f.lookup(t, k); got != want {
					t.Fatalf("key %d: got %q, want %q", k, got, want)
				}
			}
			if n := f.scanCount(t); n != 4 {
				t.Fatalf("heap scan found %d rows, want 4", n)
			}
		})
	}
}

// TestOwnedEditsCrashRecoversCommitted: a transaction that rewrites the
// heap page and index leaf it already wrote (the leaf in place, as its
// own image) and crashes before its commit record leaves the committed
// pages as they were: the pending version of each page it touched keeps
// the committed bytes, the store's pages are never written into, and
// recovery finds the committed rows only.
func TestOwnedEditsCrashRecoversCommitted(t *testing.T) {
	for _, writeBack := range []bool{false, true} {
		t.Run(fmt.Sprintf("written back %v", writeBack), func(t *testing.T) {
			f := newFixture(t, 64)
			if err := f.tm.Checkpoint(f.sess); err != nil {
				t.Fatal(err)
			}
			tx, err := f.insertTail("committed", 1, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if writeBack {
				if err := f.inst.Pool.FlushAll(&f.sess.Clk); err != nil {
					t.Fatal(err)
				}
			}
			// The committed content of every page: the frame the pool
			// serves, and the store's page.
			type sums struct{ frame, stored uint32 }
			committed := map[[2]int64]sums{}
			for obj, content := range map[pagestore.ObjectID]policy.ContentType{f.info.ID: policy.Table, f.ix.Object: policy.Index} {
				for p := int64(0); p < f.db.Store.Pages(obj); p++ {
					data, err := f.inst.Pool.Get(&f.sess.Clk, policy.Tag{Object: obj, Content: content}, p)
					if err != nil {
						t.Fatal(err)
					}
					stored, _, err := f.db.Store.Read(obj, p)
					if err != nil {
						t.Fatal(err)
					}
					committed[[2]int64{int64(obj), p}] = sums{crc32.ChecksumIEEE(data), crc32.ChecksumIEEE(stored)}
				}
			}
			tx, err = f.insertTail("lost", 4, 5, 6)
			if err != nil {
				t.Fatal(err)
			}
			pages := 0
			if err := f.inst.Pool.Touched(tx.hooks, func(obj pagestore.ObjectID, page int64, pre, _ []byte) error {
				want, ok := committed[[2]int64{int64(obj), page}]
				if !ok {
					return nil // a page past the committed end
				}
				pages++
				if got := crc32.ChecksumIEEE(pre); got != want.frame {
					return fmt.Errorf("object %d page %d: pending version %08x, committed %08x", obj, page, got, want.frame)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if pages < 2 {
				t.Fatalf("the transaction touched %d committed pages, want the heap page and the leaf", pages)
			}
			for k, want := range committed {
				stored, _, err := f.db.Store.Read(pagestore.ObjectID(k[0]), k[1])
				if err != nil {
					t.Fatal(err)
				}
				if got := crc32.ChecksumIEEE(stored); got != want.stored {
					t.Fatalf("object %d page %d: the stored page changed under the transaction", k[0], k[1])
				}
			}
			f.tm.Crash()

			stats := f.attach(t, 64, false)
			if stats.CommittedTxns != 1 {
				t.Fatalf("recovery stats: %+v", stats)
			}
			for k := int64(1); k <= 6; k++ {
				want := "committed"
				if k > 3 {
					want = ""
				}
				if got := f.lookup(t, k); got != want {
					t.Fatalf("key %d: got %q, want %q", k, got, want)
				}
			}
			if n := f.scanCount(t); n != 3 {
				t.Fatalf("heap scan found %d rows, want 3", n)
			}
		})
	}
}

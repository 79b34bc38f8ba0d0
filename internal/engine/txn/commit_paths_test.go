package txn

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/lsm"
	"hstoragedb/internal/pagestore"
)

// write appends rows (id+i, val) and their index entries inside tx
// without finishing it.
func (f *fixture) write(t *testing.T, tx *Txn, id int64, rows int, val string) {
	t.Helper()
	for i := int64(0); i < int64(rows); i++ {
		app := f.file.NewAppender(&f.sess.Clk, f.inst.Pool, f.db.Store.Pages(f.info.ID))
		rid, err := app.Append(catalog.Tuple{catalog.IntDatum(id + i), catalog.StringDatum(val)})
		if err == nil {
			err = app.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := f.ix.Insert(&f.sess.Clk, btree.Entry{Key: id + i, RID: rid}, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCommitPathsUnwind freezes what Commit, Prepare and CommitPrepared
// leave behind on every exit: the page locks, the frame pins, the error,
// and the drain-barrier hold (a leaked hold parks the next Checkpoint
// forever). Faults: none; the manager was already Crash()ed; the
// CrashAtCommit harness fires on this call (Prepare is not a commit, so
// it does not fire there); the WAL's device writes fail because the LSM
// store under it was killed — once at the group-commit force (a small
// transaction, whose records fit the open segment) and once at a page
// record append (a transaction logging more page images than a segment
// holds, so an append must roll the segment over and flush it).
func TestCommitPathsUnwind(t *testing.T) {
	type pins int
	const (
		released pins = iota // no frame stays pinned
		kept                 // every pin of the transaction is still held
	)
	type fault int
	const (
		none fault = iota
		crashed
		crashAtCommit
		ioAtForce
		ioAtAppend
	)
	faultNames := []string{"none", "crashed", "crash-at-commit", "io-at-force", "io-at-append"}
	cases := []struct {
		entry   string
		fault   fault
		err     error // nil: the call succeeds
		holding bool  // locks (and the gate) still held afterwards
		pins    pins
	}{
		{"Commit", none, nil, false, released},
		{"Commit", crashed, ErrCrashed, false, released}, // Crash dropped the pool
		{"Commit", crashAtCommit, ErrCrashed, false, kept},
		{"Commit", ioAtForce, pagestore.ErrKilled, false, released},
		{"Commit", ioAtAppend, pagestore.ErrKilled, false, released},

		{"Prepare", none, nil, true, kept},
		{"Prepare", crashed, ErrCrashed, false, released},
		{"Prepare", crashAtCommit, nil, true, kept},
		{"Prepare", ioAtForce, pagestore.ErrKilled, false, kept}, // pins die with the pool
		{"Prepare", ioAtAppend, pagestore.ErrKilled, false, released},

		{"CommitPrepared", none, nil, false, released},
		{"CommitPrepared", crashed, ErrCrashed, false, released},
		{"CommitPrepared", crashAtCommit, ErrCrashed, false, kept},
		{"CommitPrepared", ioAtForce, pagestore.ErrKilled, false, released},
	}
	for _, c := range cases {
		c := c
		t.Run(c.entry+"/"+faultNames[c.fault], func(t *testing.T) {
			ls := lsm.New(lsm.Config{MemtablePages: 1 << 20, L0Tables: 2})
			f := newFixtureOn(t, 64, engine.NewDatabaseOn(ls))
			if err := f.tm.Checkpoint(f.sess); err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= 5; i++ {
				if err := f.insert(i, fmt.Sprintf("v%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			// Committed pages into the memtable, so a later Sync has a
			// table to write and the armed kill a block write to fire on.
			if err := f.inst.Pool.FlushAll(&f.sess.Clk); err != nil {
				t.Fatal(err)
			}

			tx, err := f.tm.Begin(f.sess)
			if err != nil {
				t.Fatal(err)
			}
			if c.fault == ioAtAppend {
				f.write(t, tx, 100, 24, strings.Repeat("x", 3000))
			} else {
				f.write(t, tx, 100, 1, "v100")
			}
			if c.entry == "CommitPrepared" {
				if err := tx.Prepare(7); err != nil {
					t.Fatal(err)
				}
			}
			pinned := f.inst.Pool.PinnedFrames()
			if pinned == 0 || f.tm.lm.Held(tx.ID()) == 0 {
				t.Fatalf("setup: %d pinned frames, %d locks", pinned, f.tm.lm.Held(tx.ID()))
			}

			switch c.fault {
			case crashed:
				f.tm.Crash()
			case crashAtCommit:
				f.tm.CrashAtCommit(1)
			case ioAtForce, ioAtAppend:
				ls.KillAfter(0)
				if err := f.inst.Mgr.Sync(&f.sess.Clk); !errors.Is(err, pagestore.ErrKilled) || !ls.Dead() {
					t.Fatalf("sync over the armed store: %v, dead=%v", err, ls.Dead())
				}
			}

			switch c.entry {
			case "Commit":
				err = tx.Commit()
			case "Prepare":
				err = tx.Prepare(7)
			case "CommitPrepared":
				err = tx.CommitPrepared()
			}
			if c.err == nil && err != nil || c.err != nil && !errors.Is(err, c.err) {
				t.Fatalf("returned %v, want %v", err, c.err)
			}
			if held := f.tm.lm.Held(tx.ID()); c.holding != (held > 0) {
				t.Fatalf("%d locks held afterwards, holding=%v", held, c.holding)
			}
			want := 0
			if c.pins == kept {
				want = pinned
			}
			if got := f.inst.Pool.PinnedFrames(); got != want {
				t.Fatalf("%d pinned frames afterwards, want %d", got, want)
			}
			if c.holding {
				if !tx.Prepared() {
					t.Fatal("holding its locks but not prepared")
				}
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			} else if err := tx.Abort(); err == nil {
				t.Fatal("the transaction was still open after the call")
			}

			// The gate hold is gone on every exit: a checkpoint gets through
			// the drain barrier (and then succeeds or reports the fault).
			done := make(chan error, 1)
			go func() { done <- f.tm.Checkpoint(f.sess) }()
			select {
			case err := <-done:
				var wantErr error
				switch {
				case f.tm.Dead():
					wantErr = ErrCrashed
				case ls.Dead():
					wantErr = pagestore.ErrKilled
				}
				if !errors.Is(err, wantErr) {
					t.Fatalf("checkpoint after the call: %v, want %v", err, wantErr)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("checkpoint parked on the drain barrier: the call leaked its gate hold")
			}
		})
	}
}

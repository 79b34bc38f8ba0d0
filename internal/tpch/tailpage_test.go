package tpch

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/engine/wal"
	"hstoragedb/internal/hybrid"
	"hstoragedb/internal/pagestore"
)

// NewOrder resumes the heaps' last pages, so an order's rows share a page
// with orders other transactions committed. The tests below take the
// three ways such a transaction can fail — abort, deadlock retry, crash
// before its commit record — and check that the committed rows on the
// shared page survive and the failed transaction's own rows do not.

// txnRig is a transactional set-up over a small dataset: one instance,
// its log and a transaction manager, checkpointed once at the start.
type txnRig struct {
	ds   *Dataset
	cfg  engine.InstanceConfig
	inst *engine.Instance
	tm   *txn.Manager
	sess *engine.Session
}

func newTxnRig(t *testing.T) *txnRig {
	t.Helper()
	r := &txnRig{ds: loadSmall(t), cfg: instCfg(hybrid.Config{Mode: hybrid.HStorage, CacheBlocks: 1024})}
	var err error
	if r.inst, err = r.ds.DB.NewInstance(r.cfg); err != nil {
		t.Fatal(err)
	}
	r.sess = r.inst.NewSession()
	log, err := wal.New(&r.sess.Clk, r.inst.Mgr, wal.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r.tm = txn.NewManager(r.inst, log)
	if err := r.tm.Checkpoint(r.sess); err != nil {
		t.Fatal(err)
	}
	return r
}

// orderRID resolves an order key through idx_orders_orderkey to its live
// row; ok is false when no live row carries the key.
func orderRID(t *testing.T, sess *engine.Session, o *OLTP, key int64) (rid catalog.RID, ok bool) {
	t.Helper()
	pool := sess.Pool()
	rids, err := btree.Open(o.ds.DB.Cat.MustIndex("idx_orders_orderkey").ID, pool).Lookup(&sess.Clk, key, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rid := range rids {
		row, err := o.ordersFile.Fetch(&sess.Clk, pool, rid, 0)
		if err != nil {
			t.Fatal(err)
		}
		if row != nil && row[0].I == key {
			return rid, true
		}
	}
	return catalog.RID{}, false
}

// lineRIDs returns the live lineitem rows of an order key, in index order.
func lineRIDs(t *testing.T, sess *engine.Session, o *OLTP, key int64) []catalog.RID {
	t.Helper()
	pool := sess.Pool()
	rids, err := btree.Open(o.ds.DB.Cat.MustIndex("idx_lineitem_orderkey").ID, pool).Lookup(&sess.Clk, key, 0)
	if err != nil {
		t.Fatal(err)
	}
	var live []catalog.RID
	for _, rid := range rids {
		row, err := o.lineFile.Fetch(&sess.Clk, pool, rid, 0)
		if err != nil {
			t.Fatal(err)
		}
		if row != nil && row[0].I == key {
			live = append(live, rid)
		}
	}
	return live
}

// checkCommitted asserts every committed order resolves to a live row
// with at least one lineitem.
func checkCommitted(t *testing.T, sess *engine.Session, o *OLTP) {
	t.Helper()
	for _, key := range o.Committed {
		if _, ok := orderRID(t, sess, o, key); !ok {
			t.Fatalf("committed order %d lost", key)
		}
		if len(lineRIDs(t, sess, o, key)) == 0 {
			t.Fatalf("committed order %d lost its lineitems", key)
		}
	}
}

// follows reports whether b is the slot an appender hands out right after
// a: the next slot of a's page, or the first of the next page.
func follows(a, b catalog.RID) bool {
	return b == catalog.RID{Page: a.Page, Slot: a.Slot + 1} || b == catalog.RID{Page: a.Page + 1}
}

// lineSpan is the lowest and highest lineitem RID of an order.
func lineSpan(t *testing.T, sess *engine.Session, o *OLTP, key int64) (first, last catalog.RID) {
	t.Helper()
	before := func(a, b catalog.RID) bool { return a.Page < b.Page || a.Page == b.Page && a.Slot < b.Slot }
	for i, rid := range lineRIDs(t, sess, o, key) {
		if i == 0 || before(rid, first) {
			first = rid
		}
		if i == 0 || before(last, rid) {
			last = rid
		}
	}
	return first, last
}

// TestTailPageAbortedNewOrder aborts a NewOrder whose order row went onto
// the page of the last committed one: the committed rows stay, the
// aborted rows are gone, and the next NewOrder takes the freed slot.
func TestTailPageAbortedNewOrder(t *testing.T) {
	r := newTxnRig(t)
	o := r.ds.NewOLTP(1)
	if err := o.RunNewOrdersTxn(r.tm, r.sess, 3); err != nil {
		t.Fatal(err)
	}
	prev, _ := orderRID(t, r.sess, o, o.Committed[len(o.Committed)-1])

	key := r.ds.AllocOrderKey()
	order, lines := genOrder(o.rng, o.rngL, key, r.ds.Customers, r.ds.Parts, r.ds.Suppliers)
	tx, err := r.tm.Begin(r.sess)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.newOrder(r.sess, tx, key, order, lines); err != nil {
		t.Fatal(err)
	}
	rid, ok := orderRID(t, r.sess, o, key)
	if !ok || rid != (catalog.RID{Page: prev.Page, Slot: prev.Slot + 1}) {
		t.Fatalf("the order went to %v (found %v), not next to the committed one at %v", rid, ok, prev)
	}
	lrids := lineRIDs(t, r.sess, o, key)
	if len(lrids) != len(lines) {
		t.Fatalf("%d of %d lineitems visible inside the transaction", len(lrids), len(lines))
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}

	if row, err := o.ordersFile.Fetch(&r.sess.Clk, r.inst.Pool, rid, 0); row != nil || err != nil {
		t.Fatalf("aborted order row still at %v: %v (%v)", rid, row, err)
	}
	for _, lrid := range lrids {
		if row, err := o.lineFile.Fetch(&r.sess.Clk, r.inst.Pool, lrid, 0); row != nil || err != nil {
			t.Fatalf("aborted lineitem still at %v: %v (%v)", lrid, row, err)
		}
	}
	if _, ok := orderRID(t, r.sess, o, key); ok {
		t.Fatal("aborted order reachable through its index")
	}
	checkCommitted(t, r.sess, o)

	if err := o.RunNewOrdersTxn(r.tm, r.sess, 1); err != nil {
		t.Fatal(err)
	}
	if next, _ := orderRID(t, r.sess, o, o.Committed[len(o.Committed)-1]); next != rid {
		t.Fatalf("the next order went to %v, not the aborted one's slot %v", next, rid)
	}
}

// TestTailPageDeadlockRetry makes a NewOrder lose a deadlock after it has
// appended to the shared tail pages: an older transaction holds the
// orders index leaf the NewOrder must insert into, then reads the orders
// tail page the NewOrder holds exclusively. The younger NewOrder is the
// victim, is aborted and retried, and its retry's rows land right after
// the committed ones — the aborted attempt left nothing behind.
func TestTailPageDeadlockRetry(t *testing.T) {
	r := newTxnRig(t)
	o := r.ds.NewOLTP(1)
	if err := o.RunNewOrdersTxn(r.tm, r.sess, 3); err != nil {
		t.Fatal(err)
	}
	prevKey := o.Committed[len(o.Committed)-1]
	prev, _ := orderRID(t, r.sess, o, prevKey)
	_, prevLine := lineSpan(t, r.sess, o, prevKey)

	other := r.inst.NewSession()
	older, err := r.tm.Begin(other)
	if err != nil {
		t.Fatal(err)
	}
	ix := btree.Open(r.ds.DB.Cat.MustIndex("idx_orders_orderkey").ID, r.inst.Pool)
	if err := ix.Insert(&other.Clk, btree.Entry{Key: 1 << 40, RID: prev}, 0); err != nil {
		t.Fatal(err)
	}

	waits := r.tm.LockStats().Waits
	done := make(chan error, 1)
	go func() { done <- o.runNewOrderTxn(r.tm, r.sess) }()
	deadline := time.Now().Add(10 * time.Second)
	for r.tm.LockStats().Waits == waits {
		if time.Now().After(deadline) {
			t.Fatal("the NewOrder never blocked on the index the older transaction holds")
		}
		time.Sleep(time.Millisecond)
	}
	row, err := o.ordersFile.Fetch(&other.Clk, r.inst.Pool, prev, 0)
	if err != nil || row == nil || row[0].I != prevKey {
		t.Fatalf("older transaction read %v (%v) at %v, want order %d", row, err, prev, prevKey)
	}
	if err := older.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if o.Retries != 1 || r.tm.LockStats().Deadlocks == 0 {
		t.Fatalf("retries %d, deadlocks %d: the NewOrder did not lose the deadlock", o.Retries, r.tm.LockStats().Deadlocks)
	}

	key := o.Committed[len(o.Committed)-1]
	rid, _ := orderRID(t, r.sess, o, key)
	if rid != (catalog.RID{Page: prev.Page, Slot: prev.Slot + 1}) {
		t.Fatalf("the retried order is at %v, not next to the committed one at %v", rid, prev)
	}
	if first, _ := lineSpan(t, r.sess, o, key); !follows(prevLine, first) {
		t.Fatalf("the retried order's lineitems start at %v, not after the committed ones at %v", first, prevLine)
	}
	checkCommitted(t, r.sess, o)
}

// TestTailPageCrashRecovery kills a NewOrder between its page records and
// its commit record while its order row shares a page with orders
// committed since the last checkpoint. Recovery replays the committed
// images of that page and skips the loser's: the committed orders are
// back, the lost one is not.
func TestTailPageCrashRecovery(t *testing.T) {
	r := newTxnRig(t)
	o := r.ds.NewOLTP(1)
	if err := o.RunNewOrdersTxn(r.tm, r.sess, 3); err != nil {
		t.Fatal(err)
	}
	r.tm.CrashAtCommit(1)
	if err := o.RunNewOrdersTxn(r.tm, r.sess, 1); !errors.Is(err, txn.ErrCrashed) {
		t.Fatalf("crash harness returned %v", err)
	}
	if len(o.Lost) != 1 {
		t.Fatalf("%d lost orders, want 1", len(o.Lost))
	}
	lost := o.Lost[0]
	// The pool still holds the loser's frames until the crash drops them.
	peek := r.inst.NewSession()
	lostRID, ok := orderRID(t, peek, o, lost)
	prev, _ := orderRID(t, peek, o, o.Committed[len(o.Committed)-1])
	if !ok || lostRID != (catalog.RID{Page: prev.Page, Slot: prev.Slot + 1}) {
		t.Fatalf("lost order at %v (found %v), not next to the committed one at %v", lostRID, ok, prev)
	}
	r.tm.Crash()

	inst, err := r.ds.DB.NewInstance(r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := inst.NewSession()
	if _, _, err := wal.Recover(&sess.Clk, inst.Mgr, wal.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	checkCommitted(t, sess, o)
	if _, ok := orderRID(t, sess, o, lost); ok {
		t.Fatalf("lost order %d visible after recovery", lost)
	}
	if row, err := o.ordersFile.Fetch(&sess.Clk, inst.Pool, lostRID, 0); row != nil || err != nil {
		t.Fatalf("the lost order's slot %v holds %v (%v) after recovery", lostRID, row, err)
	}
}

// TestTailPageCrashAfterWriteBack lets the pool write a committed version
// of the shared tail pages back to the store, commits more orders onto
// the same pages, and crashes. The log holds each order's change against
// the page it first touched, from the checkpoint on; recovery replays
// them all onto the newer version the store holds and must land on the
// final pages: every committed order is back with its lineitems.
func TestTailPageCrashAfterWriteBack(t *testing.T) {
	r := newTxnRig(t)
	o := r.ds.NewOLTP(1)
	if err := o.RunNewOrdersTxn(r.tm, r.sess, 3); err != nil {
		t.Fatal(err)
	}
	if err := r.inst.Pool.FlushAll(&r.sess.Clk); err != nil {
		t.Fatal(err)
	}
	first, _ := orderRID(t, r.sess, o, o.Committed[0])
	if err := o.RunNewOrdersTxn(r.tm, r.sess, 3); err != nil {
		t.Fatal(err)
	}
	if last, _ := orderRID(t, r.sess, o, o.Committed[len(o.Committed)-1]); last.Page != first.Page {
		t.Fatalf("orders span pages %d..%d: the test needs them on one shared page", first.Page, last.Page)
	}
	r.tm.Crash()

	inst, err := r.ds.DB.NewInstance(r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := inst.NewSession()
	if _, _, err := wal.Recover(&sess.Clk, inst.Mgr, wal.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	checkCommitted(t, sess, o)
}

// The phases of TestOLTPKilledAtEveryWrite: transactions, a write-back
// of every dirty page, more transactions, a checkpoint, more
// transactions.
const killSweepTxns = 6

// TestOLTPKilledAtEveryWrite kills the heap store under the OLTP mix
// (NewOrder, Payment, OrderStatus) at each of its durable writes in turn
// (subtest k arms KillAfter(k), for every k below the clean run's write
// count): log forces and segment rollovers, the pool's write-back of
// shared tail pages, the checkpoint's pages, record and log meta page.
// After every kill the database crashes and recovers from the log. Every
// committed order must be back with its lineitems, and no order whose
// transaction did not commit may be visible.
func TestOLTPKilledAtEveryWrite(t *testing.T) {
	n := killOLTPAt(t, -1)
	for k := int64(0); k < n; k++ {
		t.Run(fmt.Sprint(k), func(t *testing.T) { killOLTPAt(t, k) })
	}
	t.Logf("swept %d kill points", n)
}

// killOLTPAt runs the scenario under KillAfter(k) and checks the
// recovery. A negative k is the clean run: it must succeed, and it
// returns the durable writes the scenario made.
func killOLTPAt(t *testing.T, k int64) int64 {
	r := newTxnRig(t)
	cut := r.ds.DB.Store.(*pagestore.Store)
	o := r.ds.NewOLTP(1)
	first := r.ds.OrderKeyHorizon()
	base := cut.Writes()
	cut.KillAfter(k)
	err := o.RunTxn(r.tm, r.sess, killSweepTxns)
	if err == nil {
		err = r.inst.Pool.FlushAll(&r.sess.Clk)
	}
	if err == nil {
		err = o.RunTxn(r.tm, r.sess, killSweepTxns)
	}
	if err == nil {
		err = r.tm.Checkpoint(r.sess)
	}
	if err == nil {
		err = o.RunTxn(r.tm, r.sess, killSweepTxns)
	}
	if k < 0 {
		if err != nil {
			t.Fatalf("clean run: %v", err)
		}
		t.Logf("clean run: %d NewOrder, %d Payment, %d OrderStatus", o.NewOrders, o.Payments, o.OrderStatuses)
		return cut.Writes() - base
	}
	if !errors.Is(err, pagestore.ErrKilled) || !cut.Dead() {
		t.Fatalf("run returned %v (dead=%v), want ErrKilled", err, cut.Dead())
	}
	r.tm.Crash()

	inst, err := r.ds.DB.NewInstance(r.cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := inst.NewSession()
	if _, _, err := wal.Recover(&sess.Clk, inst.Mgr, wal.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	checkCommitted(t, sess, o)
	committed := make(map[int64]bool, len(o.Committed))
	for _, key := range o.Committed {
		committed[key] = true
	}
	lost := make(map[int64]bool, len(o.Lost))
	for _, key := range o.Lost {
		lost[key] = true
	}
	for key := first; key < r.ds.OrderKeyHorizon(); key++ {
		if !committed[key] && !lost[key] {
			t.Fatalf("order %d is neither committed nor lost", key)
		}
		if _, ok := orderRID(t, sess, o, key); ok && !committed[key] {
			t.Fatalf("order %d visible after recovery, but its transaction did not commit", key)
		}
	}
	return 0
}

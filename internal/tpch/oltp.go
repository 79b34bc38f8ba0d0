package tpch

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/heap"
	"hstoragedb/internal/engine/policy"
	"hstoragedb/internal/engine/txn"
	"hstoragedb/internal/pagestore"
)

// rowCPU is the simulated CPU cost per row operation on the OLTP path
// (encode/decode, lock acquisition, index maintenance, log insert): a
// 2012-era core drove roughly 1-2k fully-logged simple transactions
// per second at ~15 row operations each, i.e. tens of microseconds per
// row operation; 50us is on the conservative side of that range. The
// executor charges CPUPerTuple for analytic tuples; transactional row
// operations do strictly more work
// per row, so the driver charges its sessions accordingly — which is
// also what makes concurrency matter: a single-threaded stream leaves
// the storage system idle while it computes, while concurrent workers
// overlap their CPU with each other's I/O.
const rowCPU = 50 * time.Microsecond

// chargeCPU advances the session clock by the CPU cost of n row
// operations.
func chargeCPU(sess *engine.Session, n int) {
	sess.Clk.Advance(time.Duration(n) * rowCPU)
}

// OLTP is the paper's stated future work (Section 8: "We are currently
// extending hStorage-DB for OLTP workloads"): a small transaction mix
// over the TPC-H schema exercising exactly the request classes the rules
// govern —
//
//   - NewOrder: insert one order with its lineitems and maintain the
//     indexes (Rule 4 update traffic into the write buffer),
//   - OrderStatus: point-read an order and its lineitems through the
//     orderkey indexes (Rule 2 random traffic),
//   - Payment: read a customer and an order, then rewrite the order's
//     total price in place (random read + update write).
//
// The mix is 45% NewOrder / 45% Payment / 10% OrderStatus, roughly
// TPC-C's write-heavy balance.
//
// Run executes the mix bare (no durability, as the seed prototype did);
// RunTxn wraps every transaction in Begin/Commit against a transaction
// manager, which adds the log request class to the traffic and makes the
// mix crash-recoverable. A transaction that loses a deadlock under the
// concurrent lock manager is aborted and retried (the Retries counter
// tallies those), so one OLTP driver per worker session is the unit of
// the multi-worker driver (RunOLTPWorkers).
type OLTP struct {
	ds   *Dataset
	rng  *rand.Rand
	rngL *rand.Rand

	ordersInfo *catalog.TableInfo
	lineInfo   *catalog.TableInfo
	custInfo   *catalog.TableInfo

	ordersFile *heap.File
	lineFile   *heap.File
	custFile   *heap.File

	// rids is the buffer every index lookup appends to; each lookup's
	// RIDs are used up before the next.
	rids []catalog.RID

	// Stats
	NewOrders     int64
	Payments      int64
	OrderStatuses int64
	// Retries counts deadlock aborts that were retried.
	Retries int64

	// Committed collects the order keys of NewOrder transactions whose
	// commit is durable; Lost collects keys whose transaction was killed
	// by the crash harness or the store's cut before its commit returned
	// (see RunTxn). The crash-recovery verification checks the former are
	// present and the latter absent.
	Committed []int64
	Lost      []int64
}

// NewOLTP builds a transaction driver over a loaded dataset. Seed varies
// the key sequence per stream; concurrent workers use one driver each.
func (ds *Dataset) NewOLTP(seed int64) *OLTP {
	return &OLTP{
		ds:         ds,
		rng:        rand.New(rand.NewSource(31000 + seed)),
		rngL:       rand.New(rand.NewSource(32000 + seed)),
		ordersInfo: ds.DB.Cat.MustTable("orders"),
		lineInfo:   ds.DB.Cat.MustTable("lineitem"),
		custInfo:   ds.DB.Cat.MustTable("customer"),
		ordersFile: heap.NewFile(ds.DB.Cat.MustTable("orders").ID, ds.DB.Cat.MustTable("orders").Schema, policy.Table),
		lineFile:   heap.NewFile(ds.DB.Cat.MustTable("lineitem").ID, ds.DB.Cat.MustTable("lineitem").Schema, policy.Table),
		custFile:   heap.NewFile(ds.DB.Cat.MustTable("customer").ID, ds.DB.Cat.MustTable("customer").Schema, policy.Table),
	}
}

// AllocOrderKey atomically claims the next unused order key. Safe for
// concurrent workers.
func (ds *Dataset) AllocOrderKey() int64 {
	return atomic.AddInt64(&ds.NextOrderKey, 1) - 1
}

// OrderKeyHorizon atomically reads the first unused order key.
func (ds *Dataset) OrderKeyHorizon() int64 {
	return atomic.LoadInt64(&ds.NextOrderKey)
}

// Run executes n transactions on the session without transactional
// wrapping (the seed behaviour: no WAL, no atomicity).
func (o *OLTP) Run(sess *engine.Session, n int) error {
	for i := 0; i < n; i++ {
		var err error
		switch r := o.rng.Intn(100); {
		case r < 45:
			key := o.ds.AllocOrderKey()
			order, lines := genOrder(o.rng, o.rngL, key, o.ds.Customers, o.ds.Parts, o.ds.Suppliers)
			err = o.newOrder(sess, nil, key, order, lines)
		case r < 90:
			err = o.payment(sess, nil, o.pickPayment())
		default:
			err = o.orderStatus(sess)
		}
		if err != nil {
			return fmt.Errorf("tpch: oltp txn %d: %w", i, err)
		}
	}
	return nil
}

// RunTxn executes n transactions, each wrapped in Begin/Commit against
// the transaction manager. NewOrder and Payment run as mutating
// transactions whose page writes are logged; OrderStatus runs read-only.
// Deadlock losers are aborted and retried transparently. When the
// manager's crash harness fires (txn.ErrCrashed) or the store's cut
// kills it (pagestore.ErrKilled), RunTxn records the in-flight NewOrder
// key (if any) in Lost and returns that error unwrapped.
func (o *OLTP) RunTxn(tm *txn.Manager, sess *engine.Session, n int) error {
	for i := 0; i < n; i++ {
		var err error
		switch r := o.rng.Intn(100); {
		case r < 45:
			err = o.runNewOrderTxn(tm, sess)
		case r < 90:
			err = o.runPaymentTxn(tm, sess)
		default:
			tx := tm.BeginSnapshot(sess)
			err = o.orderStatus(sess)
			if cerr := tx.Commit(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			if crashed(err) {
				return err
			}
			return fmt.Errorf("tpch: oltp txn %d: %w", i, err)
		}
	}
	return nil
}

// RunNewOrdersTxn issues n NewOrder transactions back to back. The
// crash-injection phase of the OLTP experiment uses it so the victim
// transaction is always a NewOrder, whose key lands in Lost for the
// recovery verification.
func (o *OLTP) RunNewOrdersTxn(tm *txn.Manager, sess *engine.Session, n int) error {
	for i := 0; i < n; i++ {
		if err := o.runNewOrderTxn(tm, sess); err != nil {
			if crashed(err) {
				return err
			}
			return fmt.Errorf("tpch: oltp neworder %d: %w", i, err)
		}
	}
	return nil
}

// runNewOrderTxn generates one order and commits it transactionally,
// retrying deadlock losses with the same generated rows and key.
func (o *OLTP) runNewOrderTxn(tm *txn.Manager, sess *engine.Session) error {
	key := o.ds.AllocOrderKey()
	order, lines := genOrder(o.rng, o.rngL, key, o.ds.Customers, o.ds.Parts, o.ds.Suppliers)
	err := txn.RetryDeadlocks(&o.Retries, func() error {
		tx, err := tm.Begin(sess)
		if err != nil {
			return err
		}
		if err := o.newOrder(sess, tx, key, order, lines); err != nil {
			_ = tx.Abort()
			return err
		}
		return tx.Commit()
	})
	if err != nil {
		if crashed(err) {
			o.Lost = append(o.Lost, key)
		}
		return err
	}
	o.Committed = append(o.Committed, key)
	return nil
}

// crashed reports whether err is a simulated crash: the transaction
// manager's harness or the store's cut.
func crashed(err error) bool {
	return errors.Is(err, txn.ErrCrashed) || errors.Is(err, pagestore.ErrKilled)
}

// runPaymentTxn picks the payment's keys once and commits it
// transactionally, retrying deadlock losses with the same picks.
func (o *OLTP) runPaymentTxn(tm *txn.Manager, sess *engine.Session) error {
	p := o.pickPayment()
	return txn.RetryDeadlocks(&o.Retries, func() error {
		tx, err := tm.Begin(sess)
		if err != nil {
			return err
		}
		if err := o.payment(sess, tx, p); err != nil {
			_ = tx.Abort()
			return err
		}
		return tx.Commit()
	})
}

// newOrder appends the generated order + lineitems and maintains the
// indexes. The rows go onto the tables' last pages while those have
// room, so orders and lineitem grow by their row bytes, not by a page per
// order. Heap rows are appended (and their pages made visible) before
// any index entry referencing them is inserted, so a concurrent probe
// never dereferences a page that does not exist yet.
func (o *OLTP) newOrder(sess *engine.Session, tx *txn.Txn, key int64, order catalog.Tuple, lines []catalog.Tuple) error {
	inst := sess.Instance()

	if tx != nil {
		// Appenders claim their page from the file's logical size and
		// resume its last page, so concurrent appenders must serialize on
		// the append lock, held until the transaction finishes.
		if err := tx.LockAppend(o.ordersInfo.ID); err != nil {
			return err
		}
		if err := tx.LockAppend(o.lineInfo.ID); err != nil {
			return err
		}
	}
	ordersApp, err := o.ordersFile.NewTailAppender(&sess.Clk, inst.Pool, o.ds.DB.Store.Pages(o.ordersInfo.ID))
	if err != nil {
		return err
	}
	rid, err := ordersApp.Append(order)
	if err != nil {
		return err
	}
	if err := ordersApp.Close(); err != nil {
		return err
	}
	lineApp, err := o.lineFile.NewTailAppender(&sess.Clk, inst.Pool, o.ds.DB.Store.Pages(o.lineInfo.ID))
	if err != nil {
		return err
	}
	lrids := make([]catalog.RID, len(lines))
	for i, l := range lines {
		if lrids[i], err = lineApp.Append(l); err != nil {
			return err
		}
	}
	if err := lineApp.Close(); err != nil {
		return err
	}

	chargeCPU(sess, 1+len(lines)) // heap rows appended
	ixOrders := btree.Open(o.ds.DB.Cat.MustIndex("idx_orders_orderkey").ID, inst.Pool)
	if err := ixOrders.Insert(&sess.Clk, btree.Entry{Key: key, RID: rid}, 0); err != nil {
		return err
	}
	ixLineOK := btree.Open(o.ds.DB.Cat.MustIndex("idx_lineitem_orderkey").ID, inst.Pool)
	ixLinePK := btree.Open(o.ds.DB.Cat.MustIndex("idx_lineitem_partkey").ID, inst.Pool)
	for i, l := range lines {
		if err := ixLineOK.Insert(&sess.Clk, btree.Entry{Key: key, RID: lrids[i]}, 0); err != nil {
			return err
		}
		if err := ixLinePK.Insert(&sess.Clk, btree.Entry{Key: l[1].I, RID: lrids[i]}, 0); err != nil {
			return err
		}
	}
	chargeCPU(sess, 1+2*len(lines)) // index entries maintained
	o.NewOrders++
	return nil
}

// recentOrderSpan is the window of latest order keys OrderStatus and
// Payment draw from: as in TPC-C, status queries read a customer's most
// recent order and payments settle freshly placed ones, so the mix's
// read working set is recency-skewed rather than uniform over history.
const recentOrderSpan = 256

// pickOrderKey draws an existing order key: overwhelmingly one of the
// most recent orders — as in TPC-C, where order-status reads a
// customer's latest order — with a 2% uniform draw over the originally
// loaded orders, which keeps a stationary cold-read tail in the mix (a
// fixed historical window, so the tail's cost does not grow as
// experiment runs append history).
func (o *OLTP) pickOrderKey() int64 {
	h := o.ds.OrderKeyHorizon()
	if o.rng.Intn(100) < 98 {
		span := int64(recentOrderSpan)
		if span > h-1 {
			span = h - 1
		}
		return h - span + o.rng.Int63n(span)
	}
	hist := o.ds.Orders
	if hist > h-1 {
		hist = h - 1
	}
	return 1 + o.rng.Int63n(hist)
}

// orderStatus reads one order and its lineitems through the indexes.
func (o *OLTP) orderStatus(sess *engine.Session) error {
	inst := sess.Instance()
	key := o.pickOrderKey()
	ixOrders := btree.Open(o.ds.DB.Cat.MustIndex("idx_orders_orderkey").ID, inst.Pool)
	var err error
	if o.rids, err = ixOrders.Lookup(&sess.Clk, key, 0, o.rids[:0]...); err != nil {
		return err
	}
	for _, rid := range o.rids {
		if _, err := o.ordersFile.Fetch(&sess.Clk, inst.Pool, rid, 0); err != nil {
			return err
		}
	}
	ixLineOK := btree.Open(o.ds.DB.Cat.MustIndex("idx_lineitem_orderkey").ID, inst.Pool)
	if o.rids, err = ixLineOK.Lookup(&sess.Clk, key, 0, o.rids[:0]...); err != nil {
		return err
	}
	for _, rid := range o.rids {
		if _, err := o.lineFile.Fetch(&sess.Clk, inst.Pool, rid, 0); err != nil {
			return err
		}
	}
	chargeCPU(sess, 3+len(o.rids)) // rows read + index probes
	o.OrderStatuses++
	return nil
}

// paymentPick is the pre-drawn randomness of one Payment transaction, so
// a deadlock retry re-runs the identical logical transaction.
type paymentPick struct {
	custKey  int64
	orderKey int64
	amount   float64
}

// pickPayment draws the keys and amount for one Payment.
func (o *OLTP) pickPayment() paymentPick {
	return paymentPick{
		custKey:  1 + o.rng.Int63n(o.ds.Customers),
		orderKey: o.pickOrderKey(),
		amount:   1 + o.rng.Float64()*100,
	}
}

// payment reads a customer and an order, then rewrites the order row.
func (o *OLTP) payment(sess *engine.Session, tx *txn.Txn, p paymentPick) error {
	inst := sess.Instance()
	ixCust := btree.Open(o.ds.DB.Cat.MustIndex("idx_customer_custkey").ID, inst.Pool)
	var err error
	if o.rids, err = ixCust.Lookup(&sess.Clk, p.custKey, 0, o.rids[:0]...); err != nil {
		return err
	}
	for _, rid := range o.rids {
		if _, err := o.custFile.Fetch(&sess.Clk, inst.Pool, rid, 0); err != nil {
			return err
		}
	}

	ixOrders := btree.Open(o.ds.DB.Cat.MustIndex("idx_orders_orderkey").ID, inst.Pool)
	if o.rids, err = ixOrders.Lookup(&sess.Clk, p.orderKey, 0, o.rids[:0]...); err != nil {
		return err
	}
	totalCol := o.ordersInfo.Schema.MustCol("o_totalprice")
	for _, rid := range o.rids {
		row, err := o.ordersFile.Fetch(&sess.Clk, inst.Pool, rid, 0)
		if err != nil {
			return err
		}
		if row == nil {
			continue
		}
		updated := row.Clone()
		updated[totalCol].F += p.amount
		if err := o.ordersFile.Update(&sess.Clk, inst.Pool, rid, updated, 0); err != nil {
			return err
		}
	}
	chargeCPU(sess, 3+len(o.rids)) // customer + order read, order rewritten
	o.Payments++
	return nil
}

// RecomputeNextOrderKey rescans the orders index after a recovery and
// resets the key allocator past the highest durable order key, discarding
// allocations lost with the crashed instance.
func (ds *Dataset) RecomputeNextOrderKey(sess *engine.Session) error {
	inst := sess.Instance()
	ix := btree.Open(ds.DB.Cat.MustIndex("idx_orders_orderkey").ID, inst.Pool)
	it, err := ix.Seek(&sess.Clk, 0, 1<<62, 0)
	if err != nil {
		return err
	}
	var max int64
	for {
		e, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if e.Key > max {
			max = e.Key
		}
	}
	if max > 0 {
		atomic.StoreInt64(&ds.NextOrderKey, max+1)
	}
	return nil
}

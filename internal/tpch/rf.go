package tpch

import (
	"math/rand"

	"hstoragedb/internal/engine"
	"hstoragedb/internal/engine/btree"
	"hstoragedb/internal/engine/catalog"
	"hstoragedb/internal/engine/heap"
	"hstoragedb/internal/engine/policy"
)

// rfOrderFraction is the fraction of |orders| that one RF1 run inserts
// (the TPC-H spec uses SF*1500 new orders ≈ 0.1%).
const rfOrderFraction = 0.001

// RF1 inserts a batch of new orders and their lineitems, maintaining the
// affected indexes. All page writes carry the update classification
// (Rule 4: write buffer). It returns the number of orders inserted.
func (ds *Dataset) RF1(sess *engine.Session) (int, error) {
	n := int(float64(ds.Orders) * rfOrderFraction)
	if n < 10 {
		n = 10
	}
	inst := sess.Instance()
	rngO := rand.New(rand.NewSource(9000 + ds.OrderKeyHorizon()))
	rngL := rand.New(rand.NewSource(9500 + ds.OrderKeyHorizon()))

	ordersInfo := ds.DB.Cat.MustTable("orders")
	lineInfo := ds.DB.Cat.MustTable("lineitem")
	ordersFile := heap.NewFile(ordersInfo.ID, ordersInfo.Schema, policy.Table)
	lineFile := heap.NewFile(lineInfo.ID, lineInfo.Schema, policy.Table)

	ordersApp := ordersFile.NewAppender(&sess.Clk, inst.Pool, ds.DB.Store.Pages(ordersInfo.ID))
	lineApp := lineFile.NewAppender(&sess.Clk, inst.Pool, ds.DB.Store.Pages(lineInfo.ID))

	ixOrders := btree.Open(ds.DB.Cat.MustIndex("idx_orders_orderkey").ID, inst.Pool)
	ixLineOK := btree.Open(ds.DB.Cat.MustIndex("idx_lineitem_orderkey").ID, inst.Pool)
	ixLinePK := btree.Open(ds.DB.Cat.MustIndex("idx_lineitem_partkey").ID, inst.Pool)

	// Heap rows first, index entries second: an index entry must never be
	// visible before the heap page holding its RID is, or a concurrent
	// probe dereferences a page that does not exist yet (the dangling-RID
	// race the throughput test used to trip over).
	type ixEntry struct {
		key int64
		rid catalog.RID
	}
	var orderEntries, lineOKEntries, linePKEntries []ixEntry
	for i := 0; i < n; i++ {
		key := ds.AllocOrderKey()
		order, lines := genOrder(rngO, rngL, key, ds.Customers, ds.Parts, ds.Suppliers)
		rid, err := ordersApp.Append(order)
		if err != nil {
			return i, err
		}
		orderEntries = append(orderEntries, ixEntry{key: key, rid: rid})
		for _, l := range lines {
			lrid, err := lineApp.Append(l)
			if err != nil {
				return i, err
			}
			lineOKEntries = append(lineOKEntries, ixEntry{key: key, rid: lrid})
			linePKEntries = append(linePKEntries, ixEntry{key: l[1].I, rid: lrid})
		}
		ds.pendingRF = append(ds.pendingRF, key)
	}
	if err := ordersApp.Close(); err != nil {
		return n, err
	}
	if err := lineApp.Close(); err != nil {
		return n, err
	}
	for _, e := range orderEntries {
		if err := ixOrders.Insert(&sess.Clk, btree.Entry{Key: e.key, RID: e.rid}, 0); err != nil {
			return n, err
		}
	}
	for _, e := range lineOKEntries {
		if err := ixLineOK.Insert(&sess.Clk, btree.Entry{Key: e.key, RID: e.rid}, 0); err != nil {
			return n, err
		}
	}
	for _, e := range linePKEntries {
		if err := ixLinePK.Insert(&sess.Clk, btree.Entry{Key: e.key, RID: e.rid}, 0); err != nil {
			return n, err
		}
	}
	// Commit: push the appended pages out so their heap sizes are visible
	// to scans (and the writes reach the storage system as updates).
	if err := inst.Pool.FlushAll(&sess.Clk); err != nil {
		return n, err
	}
	ds.DB.Cat.SetRows("orders", ordersInfo.Rows+int64(n))
	return n, nil
}

// RF2 deletes the orders (and their lineitems) inserted by earlier RF1
// runs: index lookups locate the rows, heap pages are tombstoned, index
// entries removed. All writes classify as updates.
func (ds *Dataset) RF2(sess *engine.Session) (int, error) {
	inst := sess.Instance()
	ordersInfo := ds.DB.Cat.MustTable("orders")
	lineInfo := ds.DB.Cat.MustTable("lineitem")
	ordersFile := heap.NewFile(ordersInfo.ID, ordersInfo.Schema, policy.Table)
	lineFile := heap.NewFile(lineInfo.ID, lineInfo.Schema, policy.Table)

	ixOrders := btree.Open(ds.DB.Cat.MustIndex("idx_orders_orderkey").ID, inst.Pool)
	ixLineOK := btree.Open(ds.DB.Cat.MustIndex("idx_lineitem_orderkey").ID, inst.Pool)
	ixLinePK := btree.Open(ds.DB.Cat.MustIndex("idx_lineitem_partkey").ID, inst.Pool)
	partkeyCol := lineInfo.Schema.MustCol("l_partkey")

	deleted := 0
	var rids, lrids []catalog.RID // reused by every key
	var partkeys []int64
	for _, key := range ds.pendingRF {
		// Index entries are removed before the heap rows are tombstoned,
		// so concurrent index scans stop finding the rows first; a probe
		// already holding a RID tolerates the tombstone.
		var err error
		if lrids, err = ixLineOK.Lookup(&sess.Clk, key, 0, lrids[:0]...); err != nil {
			return deleted, err
		}
		partkeys = partkeys[:0]
		for _, rid := range lrids {
			t, err := lineFile.Fetch(&sess.Clk, inst.Pool, rid, 0)
			if err != nil {
				return deleted, err
			}
			if t != nil {
				partkeys = append(partkeys, t[partkeyCol].I)
			} else {
				partkeys = append(partkeys, -1)
			}
		}
		if _, err := ixLineOK.Delete(&sess.Clk, key, 0); err != nil {
			return deleted, err
		}
		for i, rid := range lrids {
			if partkeys[i] >= 0 {
				if _, err := ixLinePK.DeleteEntry(&sess.Clk, btree.Entry{Key: partkeys[i], RID: rid}, 0); err != nil {
					return deleted, err
				}
			}
		}
		if rids, err = ixOrders.Lookup(&sess.Clk, key, 0, rids[:0]...); err != nil {
			return deleted, err
		}
		if _, err := ixOrders.Delete(&sess.Clk, key, 0); err != nil {
			return deleted, err
		}
		for _, rid := range rids {
			if _, err := ordersFile.Delete(&sess.Clk, inst.Pool, rid, 0); err != nil {
				return deleted, err
			}
		}
		for _, rid := range lrids {
			if _, err := lineFile.Delete(&sess.Clk, inst.Pool, rid, 0); err != nil {
				return deleted, err
			}
		}
		deleted++
	}
	ds.pendingRF = nil
	return deleted, nil
}

// PendingRF reports how many RF1-inserted orders await RF2.
func (ds *Dataset) PendingRF() int { return len(ds.pendingRF) }
